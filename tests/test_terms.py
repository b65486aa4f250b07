import collections
import random
import time
from fractions import Fraction

import pytest

from idcalc import evaluation, terms
from idcalc.boxes import Box, domint, parse_box, product
from idcalc.evaluation import eval_term, instantiate
from idcalc.polynomials import diag, format_polyfun, parse_polyfun, vecsum, vsum, vprod
from idcalc.relations import rand_polyfun
from idcalc.terms import (Act, Comp, ILLEGAL, CONTINUOUS_OK, MAX_TERM_DEPTH, SMOOTH,
                          Opaque, TermError, TupleT, classify,
                          format_term, max_augment, mult_t, parse_term, scal_t,
                          _fold, _rebuild, _right_children, children, signature, substitute,
                          sum_t)
from idcalc.words import Signature, parse_word
from oracles import has_left_nested_comp, opaque_domains, same_term, vscal

F = Fraction


def smooth(text):
    return parse_polyfun(text)


X2 = "poly 1->1 on (0,1) : 1 x1^2"
OP_C = Opaque("c", parse_box("(0,1)"))


# ---------------------------------------------------------------------------
# signatures


def test_signature_of_tuple_multiplies():
    f = smooth("poly 1->2 on (0,1) : 1 x1; 2 x1")
    g = smooth("poly 2->3 on RxR : 1 x1; 1 x2; 1 x1 x2")
    sig = signature(TupleT((f, g)))
    assert sig == Signature(product([parse_box("(0,1)"), Box.full(2)]), 5)


def test_signature_of_composition_takes_inner_domain():
    f = smooth("poly 1->1 on R : 1 x1^2")
    g = smooth(X2)
    assert signature(Comp(f, g)).dom == parse_box("(0,1)")


def test_signature_composition_mismatch_strict():
    f = smooth("poly 2->1 on RxR : 1 x1")
    g = smooth(X2)
    with pytest.raises(TermError):
        signature(Comp(f, g))


def test_signature_of_action_folds():
    t = Act(parse_word("I1"), smooth(X2))
    assert signature(t) == Signature(domint(parse_box("(0,1)"), 1), 1)


# ---------------------------------------------------------------------------
# substitution


def test_substitute_roundtrip():
    leaf = OP_C
    t = Comp(leaf, smooth(X2))
    replaced = substitute(t, {(0,): smooth(X2)})
    back = substitute(replaced, {(0,): leaf})
    assert same_term(back, t)


def test_substitute_rejects_overlap():
    t = Comp(OP_C, smooth(X2))
    with pytest.raises(TermError):
        substitute(t, {(): smooth(X2), (0,): smooth(X2)})


def test_substitute_replaces_leaf():
    t = Comp(OP_C, smooth(X2))
    out = substitute(t, {(0,): smooth(X2)})
    assert same_term(out, Comp(smooth(X2), smooth(X2)))


# ---------------------------------------------------------------------------
# opaque sets


def opaque_names(t):
    return set(opaque_domains(t))


def test_opaque_set_union_laws():
    a = Opaque("a", parse_box("(0,1)"))
    b = Opaque("b", parse_box("(0,1)"))
    assert opaque_names(smooth(X2)) == set()
    assert opaque_names(Comp(a, b)) == {"a", "b"}
    assert opaque_names(TupleT((a, smooth(X2), b))) == {"a", "b"}
    assert opaque_names(Act(parse_word("I1"), a)) == {"a"}


# ---------------------------------------------------------------------------
# classification


def test_classify_smooth():
    assert classify(smooth(X2)) == SMOOTH


def test_classify_integral_action_on_opaque():
    assert classify(Act(parse_word("I1"), OP_C)) == CONTINUOUS_OK
    assert classify(Act(parse_word("q1 p1"), OP_C)) == CONTINUOUS_OK


def test_classify_derivative_on_opaque_is_illegal():
    assert classify(Act(parse_word("D1"), OP_C)) == ILLEGAL


def test_classify_derivative_on_smooth_branch_is_fine():
    t = TupleT((Act(parse_word("D1"), smooth(X2)),
                Act(parse_word("I1"), OP_C)))
    assert classify(t) == CONTINUOUS_OK


# ---------------------------------------------------------------------------
# right-association normal form


def _rand_term(rng, depth=3):
    if depth == 0 or rng.random() < 0.35:
        return rand_polyfun(rng, Box.full(rng.randint(1, 2)), rng.randint(1, 2))
    kind = rng.randrange(3)
    if kind == 0:
        return TupleT(tuple(_rand_term(rng, depth - 1) for _ in range(rng.randint(1, 2))))
    if kind == 1:
        return Comp(_rand_term(rng, depth - 1), _rand_term(rng, depth - 1))
    return Act(parse_word("I1"), _rand_term(rng, depth - 1))


def test_max_augment_rotates():
    a, b, c = smooth(X2), smooth(X2), smooth(X2)
    assert same_term(max_augment(Comp(Comp(a, b), c)), Comp(a, Comp(b, c)))


def test_max_augment_fixed_point():
    a, b, c = smooth(X2), smooth(X2), smooth(X2)
    t = Comp(a, Comp(b, c))
    assert max_augment(t) == t


def test_max_augment_recurses_into_tuples():
    a, b, c, d = smooth(X2), smooth(X2), smooth(X2), smooth(X2)
    t = TupleT((Comp(Comp(a, b), c), d))
    assert same_term(max_augment(t), TupleT((Comp(a, Comp(b, c)), d)))


def test_max_augment_properties_random():
    """The signature is kept where the term types; where it does not, the
    rotated term does not type either."""
    rng = random.Random(23)
    untyped = 0
    for _ in range(200):
        t = _rand_term(rng)
        out = max_augment(t)
        assert max_augment(out) == out
        assert not has_left_nested_comp(out)
        try:
            sig = signature(t)
        except TermError:
            untyped += 1
            with pytest.raises(TermError):
                signature(out)
        else:
            assert signature(out) == sig
    assert untyped == 42


# ---------------------------------------------------------------------------
# derived constructors


def test_sum_t_doubles():
    t = smooth("poly 1->1 on R : 1 x1")
    assert eval_term(sum_t(t, t)) == parse_polyfun("poly 1->1 on R : 2 x1")


def test_sum_t_is_the_pointwise_tree():
    a = smooth("poly 1->2 on (0,1) : 1 x1; 1 x1^2")
    b = smooth("poly 1->2 on (0,1) : 3; -1 x1")
    dom = parse_box("(0,1)")
    assert same_term(sum_t(a, b), Comp(Comp(vecsum(2, 2), TupleT((a, b))),
                                       diag(dom, 2)))


def test_scal_t_unit():
    t = smooth("poly 1->1 on (0,1) : 1 x1^2 + 1 x1")
    assert eval_term(scal_t(1, t), permissive=True) == eval_term(t)


def test_mult_t_zero_annihilates():
    t = smooth("poly 1->1 on R : 1 x1^3")
    zero = smooth("poly 1->1 on R : 0")
    out = eval_term(mult_t(zero, t))
    assert all(c.is_zero for c in out.components)


def test_derived_constructors_match_vector_ops():
    rng = random.Random(31)
    for _ in range(25):
        f = parse_polyfun("poly 1->2 on R : 1 x1; 3 x1^2")
        g = parse_polyfun("poly 1->2 on R : -1 x1 + 2; 1 x1^3")
        h = parse_polyfun("poly 1->2 on R : 1/2 x1^2; -4")
        tf, tg, th = f, g, h
        assert eval_term(sum_t(tf, tg)) == vsum(f, g)
        assert eval_term(sum_t(tf, tg, th)) == vsum(vsum(f, g), h)
        assert eval_term(mult_t(tf, tg)) == vprod(f, g)
        a = F(rng.randint(-3, 3), rng.choice((1, 2)))
        assert eval_term(scal_t(a, tf)) == vscal(a, f)


# ---------------------------------------------------------------------------
# grammar


def test_parse_composition_and_action():
    env = {"c": parse_box("(0,1)")}
    t = parse_term("([D2 I1] c . {poly 1->1 on (0,1) : 1 x1})", env)
    assert isinstance(t, Comp) and isinstance(t.left, Act)
    assert format_term(t) == "([D2 I1] c . {poly 1->1 on (0,1) : 1 x1})"


def test_parse_tuple():
    t = parse_term("<{poly 1->1 on R : 1 x1}, {poly 1->1 on R : 2 x1}>")
    assert isinstance(t, TupleT) and len(t.items) == 2


def test_parse_undeclared_opaque():
    with pytest.raises(TermError):
        parse_term("mystery")


def test_parse_undeclared_opaque_names_its_offset():
    env = {"c": parse_box("(0,1)")}
    with pytest.raises(TermError) as exc:
        parse_term("<c, [D1]  mystery>", env)
    assert str(exc.value) == "opaque generator 'mystery' is not declared at offset 10 in term text"


def test_parse_format_roundtrip():
    env = {"c": parse_box("(0,1)")}
    text = "<([I1] c . {poly 2->1 on (0,1)x(0,1) : 1 x1 x2}), c>"
    t = parse_term(text, env)
    assert same_term(parse_term(format_term(t), env), t)


def test_derived_constructors_reject_mismatches():
    a = smooth("poly 1->1 on (0,1) : 1 x1")
    b = smooth("poly 1->1 on R : 1 x1")
    c = smooth("poly 1->2 on (0,1) : 1 x1; 1 x1")
    with pytest.raises(TermError):
        sum_t(a, b)  # different domains
    with pytest.raises(TermError):
        sum_t(a, c)  # different codomain dimensions
    with pytest.raises(TermError):
        sum_t(a, a, c)  # the third operand differs
    with pytest.raises(TermError):
        sum_t()  # no operand


# ---------------------------------------------------------------------------
# depth: terms built in code have no depth limit

DEEP = 10_000
LEAF = smooth("poly 1->1 on R : 1 x1")
LEAF_TEXT = "{poly 1->1 on R : 1 x1}"
D1 = parse_word("D1")
# shape: (wrap one level, the child step towards the deepest leaf, the text
# one level adds before and after the deepest leaf)
DEEP_SHAPES = {
    "act": (lambda t: Act(D1, t), 0, "[D1] ", ""),
    "right_comp": (lambda t: Comp(LEAF, t), 1, f"({LEAF_TEXT} . ", ")"),
    "left_comp": (lambda t: Comp(t, LEAF), 0, "(", f" . {LEAF_TEXT})"),
    "tuple": (lambda t: TupleT((t,)), 0, "<", ">"),
}


def _deep(wrap, depth, leaf=LEAF):
    t = leaf
    for _ in range(depth):
        t = wrap(t)
    return t


@pytest.mark.parametrize("shape", sorted(DEEP_SHAPES))
def test_deep_terms_built_in_code(shape):
    """Every term function runs at 10,000 levels; results are checked by
    text, signature and length."""
    wrap, step, before, after = DEEP_SHAPES[shape]
    t = _deep(wrap, DEEP)
    assert format_term(t) == before * DEEP + LEAF_TEXT + after * DEEP
    assert signature(t) == signature(LEAF)
    assert classify(t) == SMOOTH
    assert has_left_nested_comp(t) is (shape == "left_comp")
    _, _, r_before, r_after = DEEP_SHAPES["right_comp" if shape == "left_comp" else shape]
    assert format_term(max_augment(t)) == r_before * DEEP + LEAF_TEXT + r_after * DEEP
    assert format_polyfun(eval_term(t)) == format_polyfun(eval_term(_deep(wrap, 3)))
    out = substitute(t, {(step,) * DEEP: Opaque("c", Box.full(1))})
    out_text = format_term(out)
    assert len(out_text) == (len(before) + len(after)) * DEEP + 1
    assert out_text == before * DEEP + "c" + after * DEEP
    assert classify(out) == (ILLEGAL if shape == "act" else CONTINUOUS_OK)


@pytest.mark.parametrize("shape", sorted(DEEP_SHAPES))
def test_deep_terms_compare_and_hash(shape):
    """The structural comparison runs on an explicit stack: two chains
    10,000 deep, built apart, are the same term, and a third one differing
    only in its bottom leaf is not.  Composite terms compare and hash by
    identity, which walks nothing."""
    wrap = DEEP_SHAPES[shape][0]
    t, same = _deep(wrap, DEEP), _deep(wrap, DEEP, smooth("poly 1->1 on R : 1 x1"))
    other = _deep(wrap, DEEP, smooth("poly 1->1 on R : 2 x1"))
    assert same_term(t, same) and same_term(same, t)
    assert not same_term(t, other) and not same_term(other, t)
    assert t == t and t != same and hash(t) == hash(t)


def test_parsed_terms_at_the_depth_bound_compare_and_hash():
    def text(leaf):
        return "<" * MAX_TERM_DEPTH + leaf + ">" * MAX_TERM_DEPTH
    a, b = parse_term(text(LEAF_TEXT)), parse_term(text(LEAF_TEXT))
    assert same_term(a, b)
    assert not same_term(a, parse_term(text("{poly 1->1 on R : 2 x1}")))


def test_equal_terms_hash_equal():
    """Random terms and their rebuilt copies are the same term; a set keeps
    a composite term and its copy apart, since they hash by identity, and
    a leaf and its copy as one, since leaves hash by value.  Unequal kinds
    and words are not the same term."""
    rng = random.Random(21)
    for _ in range(100):
        t = _rand_term(rng)
        copy = parse_term(format_term(t))
        assert same_term(t, copy) and same_term(copy, t)
        assert len({t, copy}) == (1 if not children(t) else 2)
    x = smooth("poly 1->1 on R : 1 x1")
    assert not same_term(Act(parse_word("D1"), x), Act(parse_word("D2"), x))
    assert not same_term(Comp(x, x), TupleT((x, x)))
    assert not same_term(TupleT((x,)), x) and not same_term(x, TupleT((x,)))
    assert not same_term(TupleT((x, x)), TupleT((x,)))


def test_same_term_is_linear_on_shared_dags():
    """Two DAGs built apart, each level the composition of the level below
    with itself: 2**200 paths each, which only a walk that compares each
    pair of node objects once gets through."""
    def dag(leaf):
        t = leaf
        for _ in range(200):
            t = Comp(t, t)
        return t
    assert same_term(dag(smooth("poly 1->1 on R : 1 x1")), dag(smooth("poly 1->1 on R : 1 x1")))
    assert not same_term(dag(smooth("poly 1->1 on R : 1 x1")), dag(smooth("poly 1->1 on R : 2 x1")))


def _address_walks(depth: int) -> tuple:
    """Seconds taken by the walks over a depth-deep [D1] chain down to its
    leaf, and the instantiated chain."""
    leaf = Opaque("c", Box.full(1))
    t = leaf
    for _ in range(depth):
        t = Act(D1, t)
    start = time.perf_counter()
    assert opaque_names(t) == {"c"}
    out = instantiate(t, {"c": LEAF})
    return time.perf_counter() - start, out


def test_addresses_cost_linear_time_in_depth():
    """The walks down to the leaf take about 10x as long at 50,000 levels
    as at 5,000; a walk that copies the whole path at every step takes
    about 100x.
    The bound is on that ratio (least of 3 interleaved runs each), not on
    wall time, so a slow or traced host does not fail it.  No deep term is
    compared with ==."""
    depth, times = 50_000, {5_000: [], 50_000: []}
    for _ in range(3):
        for d in times:
            seconds, out = _address_walks(d)
            times[d].append(seconds)
    assert min(times[50_000]) / min(times[5_000]) < 30
    assert opaque_names(out) == set()
    for _ in range(depth):
        out = out.body
    assert out is LEAF


# ---------------------------------------------------------------------------
# folds over a term's DAG


def _shared():
    """One composite subterm object s at four addresses of a term."""
    s = Comp(smooth("poly 1->1 on R : 1 x1^2"), smooth("poly 1->1 on R : 1 x1 + 1"))
    return s, TupleT((s, Act(parse_word("I1"), s), Comp(s, s)))


def test_a_fold_with_a_memo_visits_each_node_object_once():
    s, t = _shared()
    visits = collections.Counter()

    def visit(node, kids):
        visits[id(node)] += 1
        return len(kids)
    _fold(t, visit, children, {})
    assert visits[id(s)] == 1 and set(visits.values()) == {1}
    visits.clear()
    _fold(t, visit)  # without a memo, the tree: once per address
    assert visits[id(s)] == 4


@pytest.mark.parametrize("fold", [
    signature, classify, max_augment, hash, eval_term, lambda t: instantiate(t, {}),
], ids=["signature", "classify", "max_augment", "hash", "eval_term", "instantiate"])
def test_each_fold_visits_a_shared_subterm_once(monkeypatch, fold):
    s, t = _shared()
    visits = collections.Counter()

    def counting(t, visit, expand=children, memo=None):
        def counted(node, vals):
            visits[id(node)] += 1
            return visit(node, vals)
        return _fold(t, counted, expand, memo)
    monkeypatch.setattr(terms, "_fold", counting)
    monkeypatch.setattr(evaluation, "_fold", counting)
    fold(t)
    if fold is hash:  # composite terms hash by identity: nothing is walked
        assert not visits
    else:
        assert visits[id(s)] == 1 and set(visits.values()) == {1}


def _factors(t):
    """The composition factors of t, left to right."""
    out, stack = [], [t]
    while stack:
        node = stack.pop()
        if isinstance(node, Comp):
            stack += [node.right, node.left]
        else:
            out.append(node)
    return out


def test_max_augment_of_a_long_left_chain_with_shared_parts():
    """A left-nested chain of 3,000 compositions over three leaf objects and
    one shared subchain: max_augment gives the term of the fold without a
    memo, the right-nested chain of the same factors, and keeps a subterm
    held twice as one object."""
    a, b, c = (smooth(f"poly 1->1 on R : {k} x1") for k in (1, 2, 3))
    u = Comp(b, c)
    t = a
    for k in range(3000):
        t = Comp(t, (a, b, c, u)[k % 4])
    *factors, expected = _factors(t)
    for f in reversed(factors):
        expected = Comp(f, expected)
    out = max_augment(t)
    assert same_term(out, expected) and same_term(expected, _fold(t, _rebuild, _right_children))
    assert not has_left_nested_comp(out)
    pair = max_augment(TupleT((t, t)))
    assert pair.items[0] is pair.items[1] and same_term(pair.items[0], expected)
