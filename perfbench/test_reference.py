"""The sympy reference on hand-derived cases."""

import random

import sympy

import reference as R
import wordgen as W

F1 = R.from_terms(1, [[((1,), 1)]])  # f(x) = x


def values(f, point):
    return R.value(f, {j: sympy.Rational(v) for j, v in enumerate(point, start=1)})


def test_q1_acts_like_d2_i1_on_the_identity():
    a = R.act_word(R.parse_word("q1"), F1)
    b = R.act_word(R.parse_word("D2 I1"), F1)
    assert a.arity == b.arity == 2
    assert values(a, (3, 7)) == values(b, (3, 7)) == (7,)  # reads the upper endpoint
    assert R.agree(a, b, random.Random(0))


def test_integral_of_t_from_x1_to_x2():
    f = R.act("I", 1, F1)
    for lo, hi in ((0, 1), (-2, 5), (sympy.Rational(1, 3), 4)):
        assert values(f, (lo, hi)) == ((sympy.Rational(hi) ** 2 - sympy.Rational(lo) ** 2) / 2,)


def test_generator_actions():
    f = R.from_terms(2, [[((1, 0), 1)], [((0, 2), 3)]])  # (x1, 3 x2^2)
    pt = (2, 5, 7)
    assert values(R.act("p", 2, f), pt[:2]) == (75,)
    assert values(R.act("p", 3, f), pt[:2]) == (0,)
    assert values(R.act("D", 2, f), pt[:2]) == (0, 30)
    assert values(R.act("q", 1, f), pt) == (5, 147)      # deletes coordinate 1
    assert values(R.act("Q", 1, f), pt) == (-2, -147)    # deletes coordinate 2, negates
    assert R.act("q", 4, f).arity == 5                    # beyond the arity: pads


def test_word_pairs():
    rng = random.Random(1)
    assert R.words_agree(R.parse_word("q1 D1"), R.parse_word("D2 q1"), rng)
    assert not R.words_agree(R.parse_word("p3 I2"), R.parse_word("p4 I2"), rng)
    assert not R.words_agree(R.parse_word("D4 I4 D4"), R.parse_word("I4 D4"), rng)


def test_structural_zero_matches_full_evaluation():
    rng = random.Random(2)
    for word in ("p3 p1", "D3 q2", "D1 D1 I1", "D2 I1 D1"):
        w = R.parse_word(word)
        f = R.product_witness(rng, *R.witness_size(w))
        zero = R._structural_zero(w, f)
        full = f
        for kind, i in reversed(w):
            full = R.act(kind, i, full)
        assert R.shape(w, f) == (full.arity, len(full.comps))
        if zero is not None:
            assert all(v == 0 for pt in R.sample_points(rng, full.arity)
                       for v in R.value(full, pt))


def test_substitution():
    y1 = R.poly([((1,), 1)], 1)
    p = R.poly([((2, 0), 1), ((0, 1), 1)], 2)  # x1^2 + x2
    assert R.subst(p, [y1, y1 ** 2]) == R.poly([((2,), 2)], 1)


def test_jacobian_and_a_core_with_known_kernel():
    z = [R.poly([((2, 0), 1), ((1, 1), 2), ((0, 2), 1)], 2)]  # (x1 + x2)^2
    assert R.jacobian_at_zero(z, 2) == sympy.Matrix([[0, 0]])
    assert R.vanishing_rank(z, 2) == 1
    assert R.annihilates(z, (1, -1)) and not R.annihilates(z, (1, 0))
    lin = [R.poly([((1, 0), 2), ((0, 1), 1)], 2), R.poly([((0, 1), 3)], 2)]
    assert R.jacobian_at_zero(lin, 2) == sympy.Matrix([[2, 1], [0, 3]])


def test_relation_table_copy_is_sound():
    rng = random.Random(3)
    count = 0
    for _, lhs, rhs, cond in W.TABLE:
        uses_j = any(var == "j" for _, var, _ in lhs + rhs)
        for i in range(1, 5):
            for j in (range(1, 5) if uses_j else [None]):
                if cond(i, j):
                    b = {"i": i} if j is None else {"i": i, "j": j}
                    assert R.words_agree(W._emit(lhs, b), W._emit(rhs, b), rng)
                    count += 1
    assert count == 202
