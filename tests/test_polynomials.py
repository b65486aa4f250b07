import collections
import itertools
import random
from fractions import Fraction

import pytest

from idcalc.boxes import Box, Enclosure, Ray1, domint, parse_box
from idcalc.polynomials import (CompositionGuardError, Orientation, Poly, PolyFun,
                                _affine_fits, _enclose, _substitute, apply_gen, apply_word,
                                compose, const_fun, coord, diag, eval_at, format_polyfun,
                                incl, parse_polyfun, partial, polyfun_to_json,
                                proj_block, proje, range_bound, range_fits, sectn,
                                smint, switch, trasl, tuple_, vecminus, vecprod,
                                vecsum, vneg, vprod, vscal, vsum)
from idcalc.relations import rand_box, rand_coeff, rand_poly, rand_polyfun
from idcalc.words import D, I, Q, Word, p, q

F = Fraction


def pf(text):
    return parse_polyfun(text)


# ---------------------------------------------------------------------------
# evaluation


def test_eval_square():
    f = pf("poly 1->1 on (0,2) : 1 x1^2")
    assert eval_at(f, [F(3, 2)]) == (F(9, 4),)


def test_eval_identity_pair():
    f = PolyFun.identity(Box.full(2))
    assert eval_at(f, [1, 2]) == (F(1), F(2))


def test_eval_product():
    f = pf("poly 2->1 on RxR : 1 x1 x2")
    assert eval_at(f, [2, 3]) == (F(6),)


def test_eval_outside_domain():
    f = pf("poly 1->1 on (0,1) : 1 x1")
    with pytest.raises(Exception):
        eval_at(f, [2])


# ---------------------------------------------------------------------------
# derivative


def test_partial_product_rule_case():
    f = pf("poly 2->1 on RxR : 1 x1^2 x2")
    assert partial(f, 1) == pf("poly 2->1 on RxR : 2 x1 x2")


def test_partial_beyond_arity_is_zero_with_same_codomain():
    f = pf("poly 1->1 on R : 1 x1^2")
    out = partial(f, 3)
    assert out == PolyFun.zero(Box.full(1), 1)
    assert out.cod_dim == 1


def test_partial_of_constant():
    f = const_fun(Box.full(1), [5])
    assert partial(f, 1) == PolyFun.zero(Box.full(1), 1)


# ---------------------------------------------------------------------------
# integral


def test_smint_square():
    # oracle: antiderivative t^3/3 evaluated between the two new slots
    f = pf("poly 1->1 on R : 1 x1^2")
    assert smint(f, 1) == pf("poly 2->1 on RxR : 1/3 x2^3 + -1/3 x1^3")


def test_smint_constant():
    f = const_fun(Box.full(1), [1])
    assert smint(f, 1) == pf("poly 2->1 on RxR : 1 x2 + -1 x1")


def test_smint_on_point_domain():
    # integrand over R^0 is first padded with the projection on the block
    f = const_fun(Box.point(), [F(5)])
    out = smint(f, 1)
    assert out == pf("poly 2->1 on RxR : 5 x2 + -5 x1")


def test_smint_domain_extension():
    f = pf("poly 2->1 on (0,1)x(2,3) : 1 x1 x2")
    assert smint(f, 2).domain == domint(parse_box("(0,1)x(2,3)"), 2)


def test_partial_smint_endpoint_identities():
    rng = random.Random(0)
    for _ in range(30):
        m = rng.randint(1, 3)
        f = rand_polyfun(rng, Box.full(m), 1)
        for i in range(1, m + 1):
            g = smint(f, i)
            # d/dx_{i+1} of the integral recovers f at the upper endpoint
            upper = partial(g, i + 1)
            mapping_up = [k if k < i else (i + 1 if k == i else k + 1) for k in range(1, m + 1)]
            expect_up = PolyFun.make(g.domain, [c.remap(m + 1, mapping_up) for c in f.components])
            assert upper == expect_up
            # d/dx_i recovers the negated lower endpoint
            lower = partial(g, i)
            mapping_lo = [k if k <= i else k + 1 for k in range(1, m + 1)]
            expect_lo = vneg(PolyFun.make(g.domain, [c.remap(m + 1, mapping_lo) for c in f.components]))
            assert lower == expect_lo


# ---------------------------------------------------------------------------
# composition / tupling / vector ops


def test_compose_substitution():
    f = pf("poly 1->1 on (0,2) : 1 x1^2")
    g = pf("poly 1->1 on (-1/2,1/2) : 1 x1 + 1")
    out = compose(f, g)
    assert out == pf("poly 1->1 on (-1/2,1/2) : 1 x1^2 + 2 x1 + 1")
    assert not out.is_partial


def test_compose_identity():
    g = pf("poly 1->1 on (0,1) : 1 x1^2")
    assert compose(PolyFun.identity(Box.full(1)), g) == g


def test_compose_guard_failure():
    f = pf("poly 1->1 on (0,1) : 1 x1")
    g = const_fun(Box.full(1), [2])
    with pytest.raises(CompositionGuardError):
        compose(f, g)
    assert compose(f, g, permissive=True).is_partial


@pytest.mark.parametrize("op", [
    lambda h: apply_word(Word.of(D(2)), h),
    lambda h: apply_word(Word.of(p(2)), h),
    lambda h: vsum(h, h),
    lambda h: vprod(h, h),
    lambda h: smint(compose(PolyFun.make(h.domain, []), h, permissive=True), 1),
], ids=["derivative-past-arity", "projection-past-codomain", "vsum", "vprod", "smint-R0"])
def test_operations_keep_the_partial_flag(op):
    f = pf("poly 1->1 on (0,1) : 1 x1")
    h = compose(f, pf("poly 1->1 on (0,2) : 1 x1^2"), permissive=True)
    assert h.is_partial
    assert op(h).is_partial


def test_compose_associative_permissive():
    rng = random.Random(1)
    for _ in range(20):
        h = rand_polyfun(rng, Box.full(1), 1)
        g = pf("poly 1->1 on R : 1 x1 + 1")
        f = pf("poly 1->1 on R : 1 x1^2")
        left = compose(compose(f, g, permissive=True), h, permissive=True)
        right = compose(f, compose(g, h, permissive=True), permissive=True)
        assert left == right


def test_tuple_blocks():
    f = pf("poly 1->1 on R : 1 x1^2")
    g = pf("poly 1->1 on R : 1 x1^3")
    t = tuple_([f, g])
    assert t == pf("poly 2->2 on RxR : 1 x1^2; 1 x2^3")


def test_tuple_singleton_and_point_codomain():
    f = pf("poly 1->1 on (0,1) : 1 x1")
    assert tuple_([f]) == f
    padded = tuple_([f, PolyFun.make(Box.point(), [])])
    assert padded == f  # the empty block vanishes


def test_vprod_row_major():
    dom = Box.full(1)
    f = PolyFun.make(dom, [Poly.var(1, 1), Poly.const(1, 2)])       # (a, b)
    g = PolyFun.make(dom, [Poly.const(1, 3), Poly.var(1, 1)])       # (c, d)
    out = vprod(f, g)
    assert out.cod_dim == 4
    x = [F(5)]
    a, b, c, d = F(5), F(2), F(3), F(5)
    assert eval_at(out, x) == (a * c, a * d, b * c, b * d)


def test_vprod_zero_dims():
    dom = Box.full(1)
    empty = PolyFun.make(dom, [])
    g = PolyFun.make(dom, [Poly.var(1, 1), Poly.const(1, 7)])
    assert vprod(empty, empty).cod_dim == 0
    out = vprod(empty, g)
    assert out.cod_dim == 2 and all(c.is_zero for c in out.components)


def test_vsum_cancellation_and_vscal_identity():
    f = pf("poly 1->1 on R : 1 x1")
    assert vsum(f, vneg(f)) == PolyFun.zero(Box.full(1), 1)
    assert vscal(1, f) == f


# ---------------------------------------------------------------------------
# primitives


def test_proje_deletes_coordinate():
    # one-dimensional case: (x1, x2) -> x2
    out = proje(1, 1)
    assert eval_at(out, [4, 9]) == (F(9),)
    out2 = proje(2, 2)
    assert eval_at(out2, [1, 2, 3]) == (F(1), F(3))


def test_sectn_zeroes_slot():
    out = sectn(2, 1)
    assert eval_at(out, [1, 2, 3]) == (F(0), F(3))


def test_diag_duplicates():
    out = diag(Box((Ray1.bounded(0, 1),)), 2)
    assert eval_at(out, [F(1, 2)]) == (F(1, 2), F(1, 2))


def test_coordinate_maps_of_one_shape_share_their_components():
    """_picks builds each (arity, indices) shape once: diagonals on two
    boxes of one dimension, and the identity and the diagonal of one copy,
    hold one tuple; another shape holds another."""
    u, v = Box((Ray1.bounded(0, 1),) * 2), Box.full(2)
    assert diag(u, 2).components is diag(v, 2).components
    assert diag(u, 1).components is PolyFun.identity(v).components is incl(u).components
    assert proje(1, 1).components is not proje(1, 2).components
    assert diag(u, 2) != diag(v, 2) and diag(u, 2).domain == u


def test_trasl_translates():
    out = trasl([F(1), F(-2)])
    assert eval_at(out, [3, 3]) == (F(4), F(1))


def test_coord_and_proj_block():
    assert eval_at(coord(3, 2), [1, 2, 3]) == (F(2),)
    blocks = [Box.full(2), Box.full(1)]
    assert eval_at(proj_block(blocks, 2), [1, 2, 3]) == (F(3),)


def test_switch_permutes_blocks():
    blocks = [Box.full(1), Box.full(2)]
    out = switch(blocks, [2, 1])
    assert eval_at(out, [1, 2, 3]) == (F(2), F(3), F(1))


def test_vecsum_vecminus_vecprod():
    assert eval_at(vecsum(2, 2), [1, 2, 3, 4]) == (F(4), F(6))
    assert eval_at(vecminus(2), [1, -2]) == (F(-1), F(2))
    assert eval_at(vecprod(2, 2), [1, 2, 3, 4]) == (F(3), F(4), F(6), F(8))


def test_incl_is_the_identity_on_its_box():
    sub = Box((Ray1.bounded(0, 1),))
    assert incl(sub) == PolyFun.identity(sub)


# ---------------------------------------------------------------------------
# range enclosures


def test_range_bound_identity():
    f = pf("poly 1->1 on (0,1) : 1 x1")
    assert range_bound(f) == [Enclosure(F(0), F(1))]


def test_range_bound_square_contains_true_range():
    f = pf("poly 1->1 on (-1,1) : 1 x1^2")
    enc = range_bound(f)[0]
    assert enc.lo <= 0 and enc.hi >= 1  # sound enclosure of [0, 1]


def test_range_bound_constant():
    f = const_fun(Box.full(1), [3])
    assert range_bound(f) == [Enclosure(F(3), F(3))]


def _closure_point(rng, box):
    """A rational point of the closed box; an infinite end is replaced by
    one 6 beyond the other end (or by -3 / 3 on R), and each coordinate
    is an end with probability 2/9."""
    xs = []
    for r in box.factors:
        lo = r.lo if r.lo is not None else (r.hi - 6 if r.hi is not None else F(-3))
        hi = r.hi if r.hi is not None else lo + 6
        xs.append(lo + (hi - lo) * F(rng.randint(0, 8), 8))
    return xs


def test_poly_ops_match_sympy():
    """add, mul, powers by repeated mul, subst, partial and antideriv agree
    with sympy's expansion coefficient for coefficient, and range_bound
    encloses every sampled value on the closed domain."""
    sympy = pytest.importorskip("sympy")

    def to_sympy(p, gens):
        return sympy.Poly.from_dict({k: sympy.Rational(c.numerator, c.denominator)
                                     for k, c in p.terms}, *gens, domain="QQ")

    def agrees(p, ref):
        return dict(p.terms) == {k: F(int(c.p), int(c.q)) for k, c in ref.terms() if c}

    rng = random.Random(41)
    for _ in range(200):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        xs, ys = sympy.symbols(f"x1:{m + 1}"), sympy.symbols(f"y1:{n + 1}")
        f = rand_polyfun(rng, rand_box(rng, m), 2)
        a, b = f.components
        sa, sb = to_sympy(a, xs), to_sympy(b, xs)
        assert agrees(a.add(b), sa + sb)
        assert agrees(a.mul(b), sa * sb)
        power = Poly.const(m, 1)
        for e in range(5):
            assert agrees(power, sa ** e)
            power = power.mul(a)
        i = rng.randint(1, m)
        assert agrees(a.partial(i), sa.diff(xs[i - 1]))
        assert agrees(a.antideriv(i), sa.integrate(xs[i - 1]))
        args = rand_polyfun(rng, Box.full(n), m, 2).components
        sargs = [to_sympy(q, ys) for q in args]
        sub = sympy.Poly(0, *ys, domain="QQ")
        for k, c in a.terms:
            sub += sympy.prod((q ** e for q, e in zip(sargs, k)),
                              start=sympy.Poly(sympy.Rational(c.numerator, c.denominator),
                                               *ys, domain="QQ"))
        assert agrees(a.subst(list(args)), sub)
        encs = range_bound(f)
        for _ in range(3):
            pt = _closure_point(rng, f.domain)
            for p, enc in zip(f.components, encs):
                v = p.eval(pt)
                assert (enc.lo is None or enc.lo <= v) and (enc.hi is None or v <= enc.hi)


def _rand_subst_arg(rng, n):
    """A substitution argument of arity n: a zero or constant polynomial, a
    variable, or the sum of two random polynomials, one scaled by 1 or 1/3
    and one by up to 4 or 4/5, so that one argument's coefficients often
    have different denominators."""
    kind = rng.randrange(6)
    if kind == 0:
        return Poly.zero(n)
    if kind == 1:
        return Poly.const(n, F(rng.randint(-7, 7), rng.choice((1, 2, 3, 7))))
    if kind == 2 and n:
        return Poly.var(n, rng.randint(1, n))
    return (rand_poly(rng, n).scale(F(1, rng.choice((1, 3))))
            .add(rand_poly(rng, n).scale(F(rng.randint(1, 4), rng.choice((1, 5))))))


def test_subst_matches_sympy_term_for_term():
    """Poly.subst gives sympy's expansion as the same terms tuple, order
    and reduced Fraction coefficients included, over zero, constant, unused
    and variable arguments, target arity 0, mixed denominators and
    outputs of degree 9."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(19)
    seen = collections.Counter()
    for _ in range(600):
        m = rng.randint(0, 3)
        n = rng.randint(0, 3) if m else 0  # with no argument, the target arity is 0
        f = rand_poly(rng, m).scale(F(1, rng.choice((1, 3, 4))))
        args = [_rand_subst_arg(rng, n) for _ in range(m)]
        # the extra generator t lets sympy hold constants at target arity 0
        gens = sympy.symbols(f"y1:{n + 1}") + (sympy.Symbol("t"),)
        sargs = [sum((sympy.Rational(c.numerator, c.denominator)
                      * sympy.prod(y ** e for y, e in zip(gens, k)) for k, c in a.terms),
                     sympy.Integer(0)) for a in args]
        expr = sum((sympy.Rational(c.numerator, c.denominator)
                    * sympy.prod(q ** e for q, e in zip(sargs, k)) for k, c in f.terms),
                   sympy.Integer(0))
        ref = sympy.Poly(sympy.expand(expr), *gens, domain="QQ")
        want = tuple(sorted(((k[:n], F(int(c.p), int(c.q))) for k, c in ref.terms() if c),
                            key=lambda kc: (sum(kc[0]), kc[0])))
        got = f.subst(args)
        assert (got.arity, got.terms) == (n, want)
        assert all(type(c) is F for _, c in got.terms)
        used = {j for k, _ in f.terms for j, e in enumerate(k) if e}
        seen["arity 0"] += n == 0 and m > 0
        seen["zero"] += any(a.is_zero for a in args)
        seen["constant"] += any(a.terms and not any(map(any, (k for k, _ in a.terms)))
                                for a in args)
        seen["unused"] += len(used) < m
        seen["mixed denominators"] += any(len({c.denominator for _, c in a.terms}) > 1
                                          for a in args)
        seen["degree >= 9"] += max((sum(k) for k, _ in got.terms), default=0) >= 9
    assert min(seen.values()) >= 5 and len(seen) == 6, seen


def test_subst_work_counts():
    """On a fixed batch, subst expands over integer numerators: it makes
    no Fraction multiplication."""
    rng = random.Random(7)
    batch = []
    for _ in range(100):
        m, n = rng.randint(1, 3), rng.randint(0, 3)
        batch.append((rand_poly(rng, m), [_rand_subst_arg(rng, n) for _ in range(m)]))
    products = [0]
    mul, rmul = F.__mul__, F.__rmul__

    def counted(inner):
        def wrapper(a, b):
            products[0] += 1
            return inner(a, b)
        return wrapper
    F.__mul__, F.__rmul__ = counted(mul), counted(rmul)
    try:
        outs = [f.subst(args) for f, args in batch]
        assert products[0] == 0
        assert F(1, 2) * F(2, 3) == 2 * F(1, 6)  # the counter counts
        assert products[0] == 2
    finally:
        F.__mul__, F.__rmul__ = mul, rmul
    assert sum(len(o.terms) for o in outs) > 200


def _rand_ray(rng):
    """Full, half-bounded or bounded, with ends wide enough that random
    enclosures land on both sides of them."""
    a, b = sorted(rng.sample(range(-40, 41), 2))
    return rng.choice([Ray1.full(), Ray1.above(a), Ray1.below(b), Ray1.bounded(a, b)])


def _vertex_fits(p, box, ray):
    """Whether the affine p maps the open box into the open ray, from its
    values at the vertices of the closed box: a nonconstant p takes the
    open interval between its least and greatest vertex value, unbounded
    on a side where a variable it reads has an infinite end; a constant
    takes one point."""
    coeffs = {k.index(1): c for k, c in p.terms if sum(k) == 1}
    unbounded_lo = unbounded_hi = False
    choices = []
    for j, r in enumerate(box.factors):
        c = coeffs.get(j)
        if c is None:  # p does not read x_j: any value will do
            choices.append([F(0)])
            continue
        if r.lo is None:
            unbounded_lo, unbounded_hi = unbounded_lo or c > 0, unbounded_hi or c < 0
        if r.hi is None:
            unbounded_lo, unbounded_hi = unbounded_lo or c < 0, unbounded_hi or c > 0
        choices.append([e for e in (r.lo, r.hi) if e is not None] or [F(0)])
    values = [p.eval(pt) for pt in itertools.product(*choices)]
    if not coeffs:
        return ray.contains(values[0])
    return ((ray.lo is None or (not unbounded_lo and ray.lo <= min(values)))
            and (ray.hi is None or (not unbounded_hi and max(values) <= ray.hi)))


def _open_point(rng, box):
    """A rational point of the open box, each coordinate a multiple of
    1/1024 of the way across its factor; an infinite end is replaced as
    in ``_closure_point``."""
    xs = []
    for r in box.factors:
        lo = r.lo if r.lo is not None else (r.hi - 6 if r.hi is not None else F(-3))
        hi = r.hi if r.hi is not None else lo + 6
        xs.append(lo + (hi - lo) * F(rng.randint(1, 1023), 1024))
    return xs


def test_range_fits_is_exact_on_affine_components_and_encloses_the_rest():
    """range_fits agrees with the vertex verdict on each affine component
    and with the enclosure on each of degree >= 2, its yes is sound on
    sampled points, and strict compose follows it.  A third of the inner
    maps only pick coordinates, with targets equal to the picked factors,
    where the enclosure alone could never certify."""
    rng = random.Random(37)
    # verdicts, split by whether some target ray has a finite end
    outcomes = {(fits, finite): 0 for fits in (True, False) for finite in (True, False)}
    # component verdicts on finite targets, split by affine or not
    decided = {(fits, affine): 0 for fits in (True, False) for affine in (True, False)}
    for _ in range(600):
        dom = rand_box(rng, rng.randint(1, 3))
        kind = rng.randrange(3)
        if kind == 2:
            picks = [rng.randint(0, dom.dim) for _ in range(rng.randint(1, 3))]
            g = PolyFun.make(dom, [Poly.var(dom.dim, i) if i else Poly.zero(dom.dim)
                                   for i in picks])
            target = Box(tuple(dom.factors[i - 1] if i and rng.random() < 0.8 else _rand_ray(rng)
                               for i in picks))
        else:
            g = rand_polyfun(rng, dom, rng.randint(1, 3), 1 if kind else 3)
            target = Box(tuple(_rand_ray(rng) for _ in range(g.cod_dim)))
        fits = range_fits(g, target)
        expected = True
        for comp, ray in zip(g.components, target.factors):
            if ray.is_full:
                continue
            affine = all(sum(k) <= 1 for k, _ in comp.terms)
            ok = (_vertex_fits(comp, dom, ray) if affine
                  else range_bound(PolyFun.make(dom, [comp]))[0].fits_within(ray))
            decided[ok, affine] += 1
            expected = expected and ok
        assert fits == expected, (format_polyfun(g), str(target))
        assert not range_fits(g, Box.full(g.cod_dim + 1))
        if fits:
            for _ in range(5):
                assert target.contains(eval_at(g, _open_point(rng, dom)))
        f = rand_polyfun(rng, target, 1)
        if fits:
            assert not compose(f, g).is_partial
        else:
            with pytest.raises(CompositionGuardError):
                compose(f, g)
        outcomes[fits, not all(r.is_full for r in target.factors)] += 1
    assert outcomes[False, False] == 0
    assert min(outcomes[True, True], outcomes[True, False], outcomes[False, True]) >= 30, outcomes
    assert min(decided.values()) >= 10, decided


@pytest.mark.parametrize("g, target, fits", [
    ("poly 1->1 on (0,1) : 1 x1", "(0,1)", True),
    ("poly 1->1 on (0,inf) : 1 x1", "(0,inf)", True),
    ("poly 1->1 on (0,inf) : 1 x1", "(0,5)", False),
    ("poly 1->1 on (0,1) : 2 x1 + -1", "(-1,1)", True),
    ("poly 1->1 on (0,1) : 2 x1 + -1", "(-1,1/2)", False),
    ("poly 1->1 on (0,1) : -1 x1", "(-1,0)", True),
    ("poly 2->2 on (0,1)x(2,3) : 1 x2; 1 x1", "(2,3)x(0,1)", True),
    ("poly 1->1 on R : 1", "(1,2)", False),
    ("poly 1->1 on R : 2", "(1,2)", False),
    ("poly 1->1 on R : 3/2", "(1,2)", True),
    ("poly 1->1 on R : 0", "(-1,1)", True),
    ("poly 1->1 on R : 0", "(0,1)", False),
    ("poly 2->1 on Rx(0,1) : 1 x2", "(0,1)", True),
    ("poly 2->1 on Rx(0,1) : 1 x1 + 1 x2", "(0,1)", False),
    ("poly 1->1 on (-1,1) : 1 x1^2", "(-1,2)", False),
    # ties of the centred rule on (-1,1)x(-1/2,1/2): c0 = 0 and S = m = 2; a
    # constant, S = 0, at m = 0
    ("poly 2->1 on (-1,1)x(-1/2,1/2) : 1 x1 + 2 x2", "(-2,2)", True),
    ("poly 2->1 on (-1,1)x(-1/2,1/2) : 4 x1 x2", "(-2,2)", False),
    ("poly 2->1 on (-1,1)x(-1/2,1/2) : 2", "(2,3)", False),
    ("poly 2->1 on (-1,1)x(-1/2,1/2) : 4 x1 x2", "(-2,inf)", False),
], ids=["equal-factor", "equal-half-ray", "unbounded-factor", "affine-equal-ends",
        "affine-past-end", "negative-coefficient", "swapped-factors", "constant-on-lower-end",
        "constant-on-upper-end", "constant-inside", "zero-inside", "zero-on-end",
        "zero-coefficient-on-R", "nonzero-coefficient-on-R", "square-still-enclosed",
        "centred-affine-tie", "centred-product-tie", "centred-constant-on-end",
        "centred-product-tie-half-ray"])
def test_range_fits_boundary_cases(g, target, fits):
    """An open factor fits in an equal open factor and a constant must lie
    strictly inside; a variable with coefficient 0 does not count, however
    wide its factor.  Degree >= 2 keeps the enclosure: [-1,1] encloses
    x1^2 on (-1,1), whose true range [0,1) fits."""
    assert range_fits(pf(g), parse_box(target)) is fits


def _general_fits(g, target):
    """range_fits' verdict by its general path, the one a box not centred
    at 0 takes: ``_affine_fits``, else the monomial-wise enclosure."""
    rays = g.domain.factors
    factors = [r.closure() for r in rays]
    for p, ray in zip(g.components, target.factors):
        if ray.is_full:
            continue
        fits = _affine_fits(p, rays, ray)
        if fits is None:
            fits = _enclose(p, factors, {}).fits_within(ray)
        if not fits:
            return False
    return True


def _half_width(rng):
    return F(rng.randint(1, 4), rng.choice((1, 2, 4)))


def test_range_fits_on_centred_boxes_matches_the_general_path(monkeypatch):
    """On a box centred at 0 (a cube or unequal half-widths, dimension 0
    to 3) the enclosure has a closed form, equal to the monomial-wise one,
    and range_fits uses no interval product and gives the general path's
    verdict.  Each target end is drawn at, just inside or just outside the
    ends of the component's enclosure, so that ends touching c0 +- S are
    frequent."""
    products = [0]
    mul = Enclosure.mul

    def counted(self, other):
        products[0] += 1
        return mul(self, other)
    monkeypatch.setattr(Enclosure, "mul", counted)
    # component verdicts on finite targets, by kind and by fits
    decided = {(kind, fits): 0 for kind in ("constant", "affine", "higher")
               for fits in (True, False)}
    touching = 0  # affine components that fit with a ray end at c0 +- S
    rng = random.Random(14)
    for _ in range(600):
        m = rng.randint(0, 3)
        if rng.random() < 0.5:
            h = _half_width(rng)
            dom = Box.cube(-h, h, m)
        else:
            dom = Box(tuple(Ray1.bounded(-h, h) for h in
                            (_half_width(rng) for _ in range(m))))
        comps = [Poly.const(m, rand_coeff(rng)) if rng.random() < 0.2 else p
                 for p in rand_polyfun(rng, dom, rng.randint(1, 3), rng.randint(1, 3)).components]
        g = PolyFun.make(dom, comps)
        closed = [r.closure() for r in dom.factors]
        encs = [range_bound(PolyFun.make(dom, [p]))[0] for p in comps]
        assert encs == [_enclose(p, closed, {}) for p in comps]
        rays = []
        for enc in encs:
            lo = enc.lo + rng.choice((F(-1, 2), F(0), F(0), F(1, 4)))
            hi = enc.hi + rng.choice((F(1, 2), F(0), F(0), F(-1, 4)))
            kind = rng.randrange(4)
            rays.append(Ray1.full() if kind == 0 else Ray1.above(lo) if kind == 1 or lo >= hi
                        else Ray1.below(hi) if kind == 2 else Ray1.bounded(lo, hi))
        target = Box(tuple(rays))
        before = products[0]
        fits = range_fits(g, target)
        assert products[0] == before, (format_polyfun(g), str(target))
        assert fits == _general_fits(g, target), (format_polyfun(g), str(target))
        for p, enc, ray in zip(comps, encs, rays):
            if ray.is_full:
                continue
            one = _general_fits(PolyFun.make(dom, [p]), Box((ray,)))
            degree = max((sum(k) for k, _ in p.terms), default=0)
            decided[("constant", "affine", "higher")[min(degree, 2)], one] += 1
            touching += degree == 1 and one and (ray.lo == enc.lo or ray.hi == enc.hi)
    assert min(decided.values()) >= 10, decided
    assert touching >= 10


@pytest.mark.parametrize("g, target, fits", [
    # 1 + 2 x1 - 2 x2 on (-1,1)x(-1/2,1/2): c0 = 1, S = 3, the open range (-2,4)
    ("poly 2->1 on (-1,1)x(-1/2,1/2) : 1 + 2 x1 + -2 x2", "(-2,4)", True),
    ("poly 2->1 on (-1,1)x(-1/2,1/2) : 1 + 2 x1 + -2 x2", "(-2,inf)", True),
    ("poly 2->1 on (-1,1)x(-1/2,1/2) : 1 + 2 x1 + -2 x2", "(-inf,4)", True),
    ("poly 2->1 on (-1,1)x(-1/2,1/2) : 1 + 2 x1 + -2 x2", "(-2,7/2)", False),
    # 1 + 2 x1 + 8 x2^3: the same S and the same open range, enclosed by [-2,4]
    ("poly 2->1 on (-1,1)x(-1/2,1/2) : 1 + 2 x1 + 8 x2^3", "(-2,4)", False),
    ("poly 2->1 on (-1,1)x(-1/2,1/2) : 1 + 2 x1 + 8 x2^3", "(-2,inf)", False),
    ("poly 2->1 on (-1,1)x(-1/2,1/2) : 1 + 2 x1 + 8 x2^3", "(-inf,4)", False),
    ("poly 2->1 on (-1,1)x(-1/2,1/2) : 1 + 2 x1 + 8 x2^3", "(-3,5)", True),
    ("poly 2->1 on (-1,1)x(-1/2,1/2) : -4 x1 x2", "(-2,2)", False),
    ("poly 2->1 on (-1,1)x(-1/2,1/2) : -4 x1 x2", "(-3,3)", True),
    ("poly 2->1 on (-1,1)x(-1,1) : 3", "(3,4)", False),
    ("poly 2->1 on (-1,1)x(-1,1) : 3", "(2,4)", True),
    ("poly 0->1 on R0 : 2", "(1,3)", True),
    ("poly 0->1 on R0 : 2", "(2,3)", False),
], ids=["affine-both-ends", "affine-lower-end", "affine-upper-end", "affine-past-end",
        "cubic-both-ends", "cubic-lower-end", "cubic-upper-end", "cubic-inside",
        "product-on-ends", "product-inside", "constant-on-end", "constant-inside",
        "point-domain-inside", "point-domain-on-end"])
def test_range_fits_centred_boundary_cases(g, target, fits):
    """On a centred box an affine component takes the open interval
    (c0 - S, c0 + S), so a ray ending at c0 +- S still holds it; any other
    component is held to its closed enclosure [c0 - S, c0 + S], and a
    constant must lie strictly inside."""
    assert range_fits(pf(g), parse_box(target)) is fits
    assert _general_fits(pf(g), parse_box(target)) is fits


COORDINATE_MAPS = {
    "identity": lambda rng: PolyFun.identity(rand_box(rng, rng.randint(0, 3))),
    "diag": lambda rng: diag(rand_box(rng, rng.randint(1, 2)), rng.randint(1, 3)),
    "proj_block": lambda rng: proj_block([rand_box(rng, rng.randint(0, 2)) for _ in range(3)],
                                         rng.randint(1, 3)),  # may project onto R^0
    "coord": lambda rng: coord(3, rng.randint(1, 3)),
    "proje": lambda rng: proje(3, rng.randint(1, 4)),
    "sectn": lambda rng: sectn(3, rng.randint(1, 3)),
    "switch": lambda rng: switch([rand_box(rng, rng.randint(0, 2)) for _ in range(3)],
                                 rng.sample([1, 2, 3], 3)),
}


@pytest.mark.parametrize("name", sorted(COORDINATE_MAPS))
def test_substitution_through_coordinate_maps_relabels(name, monkeypatch):
    """Composing through a map that only picks coordinates (zero components
    and repeated indices included) renames variables, with no call to
    Poly.subst, and gives exactly what Poly.subst gives.  Into R^0,
    where Poly.subst has no argument to read the arity from, each
    component is f's constant on g's domain."""
    rng = random.Random(name)
    for _ in range(40):
        g = COORDINATE_MAPS[name](rng)
        f = rand_polyfun(rng, rand_box(rng, g.cod_dim), rng.randint(1, 3))
        if g.cod_dim:
            expected = [p.subst(list(g.components)) for p in f.components]
        else:
            expected = [Poly.const(g.arity, p.eval([])) for p in f.components]
        with monkeypatch.context() as mp:
            mp.setattr(Poly, "subst", None)
            out = _substitute(f, g, False)
        assert out.domain == g.domain and list(out.components) == expected
        assert [p.terms for p in out.components] == [p.terms for p in expected]


# # ---------------------------------------------------------------------------
# generator actions


def test_apply_gen_examples():
    f = pf("poly 1->1 on (0,1) : 1 x1^2")
    assert apply_gen(q(1), f) == pf("poly 2->1 on (0,1)x(0,1) : 1 x2^2")
    assert apply_gen(Q(1), f) == pf("poly 2->1 on (0,1)x(0,1) : -1 x1^2")
    two = pf("poly 1->2 on R : 1 x1; 1 x1^3")
    assert apply_gen(p(2), two) == pf("poly 1->1 on R : 1 x1^3")
    assert apply_gen(p(3), two) == PolyFun.zero(Box.full(1), 1)


def test_apply_gen_point_codomain_projection_preserved():
    point_valued = PolyFun.make(Box.full(1), [])
    for i in (1, 2, 3):
        assert apply_gen(p(i), point_valued) == point_valued


def test_q_matches_word_decomposition():
    f = pf("poly 1->1 on (0,1) : 1 x1^2")
    assert apply_gen(q(1), f) == apply_word(Word.of(D(2), I(1)), f)
    assert apply_gen(Q(1), f) == apply_word(Word.of(D(1), I(1)), f)


def test_fundamental_theorem_triple():
    rng = random.Random(2)
    for _ in range(25):
        m = rng.randint(1, 3)
        f = rand_polyfun(rng, Box.full(m), 1)
        for i in range(1, m + 1):
            lhs = apply_gen(q(i), f)
            rhs = vsum(apply_word(Word.of(I(i), D(i)), f), vneg(apply_gen(Q(i), f)))
            assert lhs == rhs


def test_derint_index_shifts_exact():
    rng = random.Random(3)
    for _ in range(20):
        f = rand_polyfun(rng, Box.full(rng.randint(1, 3)), 1)
        for i in range(1, 5):
            for j in range(1, 5):
                if i < j:
                    assert apply_word(Word.of(D(i), I(j)), f) == \
                        apply_word(Word.of(I(j), D(i)), f)
                if i > j:
                    assert apply_word(Word.of(D(i + 1), I(j)), f) == \
                        apply_word(Word.of(I(j), D(i)), f)


def test_orientation_flag_swaps_endpoints():
    f = pf("poly 1->1 on R : 1 x1")
    up = apply_gen(q(1), f, Orientation.UPPER)
    lo = apply_gen(q(1), f, Orientation.LOWER)
    assert up == pf("poly 2->1 on RxR : 1 x2")
    assert lo == pf("poly 2->1 on RxR : 1 x1")


# ---------------------------------------------------------------------------
# text / json round-trips


def test_polyfun_text_roundtrip():
    f = pf("poly 2->2 on (0,1)xR : 1/2 x1^2 x2 + -3 ; 1 x2")
    assert parse_polyfun(format_polyfun(f)) == f


def test_polyfun_json_form():
    f = pf("poly 2->1 on (0,1)x(-inf,3) : 2 x1 x2^2 + 1/3")
    assert polyfun_to_json(f) == {"arity": 2, "codim": 1, "domain": "(0,1)x(-inf,3)",
                                  "components": [[[[0, 0], "1/3"], [[1, 2], "2"]]]}


# ---------------------------------------------------------------------------
# independent oracles: quadrature and interpolation
#
# Simpson's rule is exact for integrands of degree <= 3, and the
# three-point Lagrange derivative is exact for degree <= 2; both give
# independent routes to the same rational values as the antiderivative
# and term-shift implementations.


def _simpson(g, a, b):
    mid = (a + b) / 2
    return (b - a) / 6 * (g(a) + 4 * g(mid) + g(b))


def test_smint_against_simpson_quadrature():
    rng = random.Random(14)
    for _ in range(40):
        m = rng.randint(1, 3)
        j = rng.randint(1, m)
        # degree <= 3 in the integration variable keeps Simpson exact
        terms = {}
        for _ in range(3):
            k = [rng.randint(0, 2) for _ in range(m)]
            k[j - 1] = rng.randint(0, 3)
            terms[tuple(k)] = F(rng.randint(-4, 4), rng.choice((1, 2, 3)))
        f = PolyFun.make(Box.full(m), [Poly.make(m, terms)])
        g = smint(f, j)
        point = [F(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(m + 1)]

        def integrand(t, point=point):
            xs = point[:j - 1] + [t] + point[j + 1:]
            return f.components[0].eval(xs)

        expected = _simpson(integrand, point[j - 1], point[j])
        assert g.components[0].eval(point) == expected


def test_partial_against_lagrange_derivative():
    rng = random.Random(15)
    for _ in range(40):
        m = rng.randint(1, 3)
        i = rng.randint(1, m)
        terms = {}
        for _ in range(3):
            k = [rng.randint(0, 3) for _ in range(m)]
            k[i - 1] = rng.randint(0, 2)  # degree <= 2 along the sampled axis
            terms[tuple(k)] = F(rng.randint(-4, 4), rng.choice((1, 2, 3)))
        f = PolyFun.make(Box.full(m), [Poly.make(m, terms)])
        point = [F(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(m)]
        h = F(1, rng.randint(1, 5))

        def sample(t):
            xs = list(point)
            xs[i - 1] = t
            return f.components[0].eval(xs)

        x0 = point[i - 1]
        # exact derivative of the degree-2 interpolant through x0-h, x0, x0+h
        exact = (sample(x0 + h) - sample(x0 - h)) / (2 * h)
        assert partial(f, i).components[0].eval(point) == exact


# ---------------------------------------------------------------------------
# ring laws (property-based)

from hypothesis import given, settings, strategies as st


def _polys(arity):
    keys = st.tuples(*([st.integers(0, 3)] * arity))
    coeffs = st.integers(-6, 6).map(lambda n: F(n, 2))
    return st.dictionaries(keys, coeffs, max_size=4).map(
        lambda d: Poly.make(arity, d))


@settings(max_examples=120, deadline=None)
@given(_polys(2), _polys(2), _polys(2))
def test_poly_ring_laws(a, b, c):
    assert a.add(b) == b.add(a)
    assert a.mul(b) == b.mul(a)
    assert a.add(b).add(c) == a.add(b.add(c))
    assert a.mul(b).mul(c) == a.mul(b.mul(c))
    assert a.mul(b.add(c)) == a.mul(b).add(a.mul(c))
    assert a.add(a.neg()).is_zero
    assert a.mul(Poly.const(2, 1)) == a


@settings(max_examples=100, deadline=None)
@given(_polys(2), _polys(2))
def test_derivative_is_a_derivation(a, b):
    lhs = a.mul(b).partial(1)
    rhs = a.partial(1).mul(b).add(a.mul(b.partial(1)))
    assert lhs == rhs
