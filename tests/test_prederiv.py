import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from idcalc import prederiv
from idcalc.boxes import Box, Enclosure, Ray1, parse_box
from idcalc.polynomials import (CompositionGuardError, Poly, PolyFun, compose, format_polyfun,
                                parse_polyfun, partial, range_fits)
from idcalc.prederiv import (GermCore, PreDeriv, PreDerivError, apply,
                             canonical_direction, chain_check, compose_germ, dot, eval_smooth,
                             format_prederiv, identity_core,
                             jacobian_at_zero, kernel_basis,
                             nontriviality_witness, parse_prederiv, pre_diff,
                             project_onto_span, smooth_kernel_test,
                             vanishing_space)
from idcalc.relations import rand_box, rand_box_around_zero, rand_polyfun
from oracles import scale

F = Fraction


def core(text):
    return GermCore(parse_polyfun(text))


def pointed(f):
    """f with its constant terms removed, so that it vanishes at 0."""
    return PolyFun.make(f.domain, [Poly.make(f.arity, {k: c for k, c in p.terms if any(k)})
                                   for p in f.components])


def rand_pointed(rng, l, m, deg=3):
    """A core on (-2,2)^l: the catalogue's polynomial draw, pointed."""
    return pointed(rand_polyfun(rng, Box.cube(-2, 2, l), m, deg))


def rand_direction(rng, l):
    return tuple(F(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(l))


# ---------------------------------------------------------------------------
# construction invariants


def test_core_must_be_pointed():
    with pytest.raises(PreDerivError):
        core("poly 1->1 on (-1,1) : 1 x1 + 1")
    with pytest.raises(PreDerivError):
        core("poly 1->1 on (1,2) : 1 x1")


def test_direction_length_checked():
    z = core("poly 1->2 on (-1,1) : 1 x1; 1 x1^2")
    with pytest.raises(PreDerivError):
        PreDeriv.of(z, [1, 2])


# ---------------------------------------------------------------------------
# apply


def test_apply_curve_example():
    z = core("poly 1->2 on (-1,1) : 1 x1; 1 x1^2")
    dv = PreDeriv.of(z, [1])
    w = parse_polyfun("poly 2->1 on RxR : 1 x1 + 1 x2")
    out = apply(dv, w)
    assert len(out) == 1
    assert out[0].components == parse_polyfun("poly 1->1 on (-1,1) : 2 x1 + 1").components


def test_apply_zero_direction():
    z = core("poly 1->2 on (-1,1) : 1 x1; 1 x1^2")
    dv = PreDeriv.of(z, [0])
    out = apply(dv, parse_polyfun("poly 2->1 on RxR : 1 x1 x2"))
    assert all(g.components[0].is_zero for g in out)


def test_apply_zero_prederiv():
    out = apply(PreDeriv.zero(2), parse_polyfun("poly 2->1 on RxR : 1 x1"))
    assert out == []


def test_apply_additive_in_directions():
    rng = random.Random(4)
    for _ in range(20):
        l, m = rng.randint(1, 3), rng.randint(1, 2)
        z = GermCore(rand_pointed(rng, l, m))
        u1, u2 = rand_direction(rng, l), rand_direction(rng, l)
        w = rand_pointed(rng, m, 1)
        joined = apply(PreDeriv.of(z, [a + b for a, b in zip(u1, u2)]), w)
        split = apply(PreDeriv.of(z, u1) + PreDeriv.of(z, u2), w)
        assert len(joined) == len(split) == 1
        assert joined[0].components == split[0].components


# ---------------------------------------------------------------------------
# smooth evaluation and the chain rule


def test_section_identity():
    dv = PreDeriv.of(identity_core(3), [F(2), F(-1), F(7, 2)])
    assert eval_smooth(dv) == (F(2), F(-1), F(7, 2))


def test_eval_smooth_jacobian_example():
    z = core("poly 1->2 on (-1,1) : 1 x1; 1 x1^2")
    assert eval_smooth(PreDeriv.of(z, [1])) == (F(1), F(0))


def test_eval_smooth_zero():
    assert eval_smooth(PreDeriv.zero(3)) == (F(0), F(0), F(0))


def test_pre_diff_identity():
    z = core("poly 1->2 on (-1,1) : 1 x1; 1 x1^2")
    dv = PreDeriv.of(z, [1])
    out = pre_diff(PolyFun.identity(Box.cube(-1, 1, 2)), dv)
    assert eval_smooth(out) == eval_smooth(dv)
    assert out.summands[0][0].fn.components == z.fn.components


def test_pre_diff_functorial_on_cores():
    rng = random.Random(8)
    for _ in range(15):
        l = rng.randint(1, 2)
        z = GermCore(rand_pointed(rng, l, 2, deg=2))
        u = rand_direction(rng, l)
        dv = PreDeriv.of(z, u)
        g = rand_pointed(rng, 2, 2, deg=2)
        f = rand_pointed(rng, 2, 2, deg=2)
        one_shot = pre_diff_compose(f, g, dv)
        two_step = pre_diff(f, pre_diff(g, dv))
        assert len(one_shot.summands) == len(two_step.summands)
        for (c1, u1), (c2, u2) in zip(one_shot.summands, two_step.summands):
            assert u1 == u2
            assert c1.fn.components == c2.fn.components


def pre_diff_compose(f, g, dv):
    composed = compose_germ(f, g)
    return pre_diff(composed, dv)


def test_pre_diff_curve_example():
    z = core("poly 1->2 on (-1,1) : 1 x1; 1 x1^2")
    dv = PreDeriv.of(z, [1])
    f = parse_polyfun("poly 2->1 on RxR : 1 x1 + 1 x2")
    out = pre_diff(f, dv)
    assert out.target_dim == 1
    assert out.summands[0][0].fn.components == \
        parse_polyfun("poly 1->1 on (-1,1) : 1 x1 + 1 x1^2").components


def test_chain_check_example_and_random():
    z = core("poly 1->2 on (-1,1) : 1 x1; 1 x1^2")
    dv = PreDeriv.of(z, [1])
    f = parse_polyfun("poly 2->1 on RxR : 1 x1 + 1 x2")
    assert chain_check(f, dv)
    rng = random.Random(21)
    for _ in range(100):
        l, m, n = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 2)
        z = GermCore(rand_pointed(rng, l, m))
        dv = PreDeriv.of(z, rand_direction(rng, l))
        f = rand_pointed(rng, m, n)
        assert chain_check(f, dv)


# ---------------------------------------------------------------------------
# germ composition: outputs and work pinned


def _outer_box(rng, m):
    """A box around 0: a small or unit cube, one not centred at 0, or one
    with unbounded factors."""
    kind = rng.randrange(3)
    if kind == 0:
        r = F(1, rng.choice((1, 5, 40)))
        return Box.cube(-r, r, m)
    if kind == 1:
        return rand_box_around_zero(rng, m)
    rays = (Ray1.full(), Ray1.above(-1), Ray1.below(2), Ray1.bounded(-3, 1))
    return Box(tuple(rng.choice(rays) for _ in range(m)))


def pinned_compositions():
    """240 (outer function, pointed core) pairs; the even-numbered cores
    lie over (-2,2)^l, the odd-numbered over boxes around 0 that are
    mostly not centred there."""
    rng = random.Random(14)
    pairs = []
    for i in range(240):
        l, m = rng.randint(1, 3), rng.randint(1, 3)
        dom = Box.cube(-2, 2, l) if i % 2 == 0 else rand_box_around_zero(rng, l)
        z = pointed(rand_polyfun(rng, dom, m))
        pairs.append((rand_polyfun(rng, _outer_box(rng, m), rng.randint(1, 2), 2), z))
    return pairs


def test_compose_germ_is_pinned():
    """Every composed polynomial and every certified box of the pinned
    set, byte for byte."""
    digest = hashlib.sha256()
    for f, z in pinned_compositions():
        digest.update(format_polyfun(compose_germ(f, z)).encode() + b"\n")
    assert digest.hexdigest() == \
        "42d4cd3a420af703743adeef29870578601ab15fd7a2ae36948c0c601c42f94a"


def _counting(monkeypatch, owner, name):
    """Count the calls of owner.name from now on."""
    calls = [0]
    inner = getattr(owner, name)

    def wrapper(*args):
        calls[0] += 1
        return inner(*args)
    monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_compose_germ_work_counts(monkeypatch):
    """The guard on a core's box centred at 0 is a coefficient sum with no
    interval products.  Every pinned core's domain holds the cap
    (-1/2, 1/2)^l, so past z's own box the certifying k has a closed form:
    one range guard per composition and one shrunk box per composition
    certified past its own box, built at the k where the halving loop
    stopped.  Those k sum to the loop's 379 halvings."""
    shrink, built = prederiv._shrink_around_zero, []

    def recording(b, k):
        built.append(k)
        return shrink(b, k)
    monkeypatch.setattr(prederiv, "_shrink_around_zero", recording)
    guards = _counting(monkeypatch, prederiv, "range_fits")
    products = _counting(monkeypatch, Enclosure, "mul")
    pairs, halvings = pinned_compositions(), 0
    for batch in (pairs[::2], pairs[1::2]):
        assert products[0] == 0  # the cores on (-2,2)^l run first
        for f, z in batch:
            before = len(built)
            compose_germ(f, z)
            halvings += max(built[before:], default=0)
    assert halvings == 379
    assert len(built) == 212
    assert guards[0] == 240
    assert products[0] > 0  # boxes not centred at 0 keep the enclosure


def test_shrunk_box_is_the_intersection_with_the_cap():
    """On boxes around 0 whose ends lie inside the cap, on it, outside it
    or at infinity: the box compose_germ tests at k is the domain's
    intersection with (-2^-k, 2^-k)^l."""
    rng = random.Random(24)
    ends = (None, F(1, 64), F(1, 8), F(1, 4), F(1, 3), F(1, 2), F(1), F(2))
    for _ in range(300):
        l, k = rng.randint(0, 3), rng.randint(1, 6)
        box = Box(tuple(Ray1(None if a is None else -a, b)
                        for a, b in zip((rng.choice(ends) for _ in range(l)),
                                        (rng.choice(ends) for _ in range(l)))))
        r = F(1, 2 ** k)
        assert prederiv._shrink_around_zero(box, k) == box.intersect(Box.cube(-r, r, l))


def _halving(f, z):
    """The halving loop compose_germ replaced: (k, box) for the least k in
    0..298 at which the range guard certifies z on its own box (k = 0) or on
    box ∩ (-2^-k, 2^-k)^l, or None."""
    for k in range(299):
        cur = z if k == 0 else z.restrict(prederiv._shrink_around_zero(z.domain, k))
        if range_fits(cur, f.domain):
            return k, cur.domain
    return None


def _agrees_with_halving(f, z):
    """compose_germ(f, z) against the halving loop: the same polynomial on
    the same box, or the same refusal; returns the loop's k, or None."""
    found = _halving(f, z)
    if found is None:
        with pytest.raises(CompositionGuardError,
                           match="^no neighbourhood of 0 certified the composition$"):
            compose_germ(f, z)
        return None
    k, box = found
    got = compose_germ(f, z)
    assert format_polyfun(got) == format_polyfun(compose(f, z.restrict(box)))
    assert not got.is_partial
    return k


def _germ_domain(rng, kind, l):
    ends = (F(1, 300), F(1, 8), F(1, 3), F(1), F(3))
    if kind == "cube":
        return Box.cube(-2, 2, l)
    if kind == "centred":
        return Box(tuple(Ray1.bounded(-h, h) for h in (rng.choice(ends) for _ in range(l))))
    return Box(tuple(Ray1.bounded(-rng.choice(ends), rng.choice(ends)) for _ in range(l)))


def test_compose_germ_radius_matches_the_halving_loop():
    """A seeded sweep of cores on cubes, on boxes centred at 0 and on boxes
    that are not, and of arity 0; half of them not pointed.  Each kind comes
    up certified on z's own box, certified past it and refused."""
    rng = random.Random(23)
    targets = (Ray1.full(), Ray1.above(-1), Ray1.below(F(1, 2)), Ray1.bounded(-3, 1),
               Ray1.bounded(F(-1, 10), F(1, 1000)), Ray1.bounded(F(1, 10), 5))
    seen = set()
    for _ in range(400):
        kind, m = rng.choice(("cube", "centred", "off-centre", "arity 0")), rng.randint(1, 3)
        l = 0 if kind == "arity 0" else rng.randint(1, 3)
        z = rand_polyfun(rng, _germ_domain(rng, kind, l), m)
        if rng.random() < 0.5:
            z = pointed(z)
        f = rand_polyfun(rng, Box(tuple(rng.choice(targets) for _ in range(m))), 1, 2)
        k = _agrees_with_halving(f, z)
        seen.add((kind, "refused" if k is None else "own box" if k == 0 else "shrunk"))
    assert len(seen) == 11  # arity 0 has one box only
    assert ("arity 0", "shrunk") not in seen


@pytest.mark.parametrize("core_text, target, k", [
    # an affine component tied exactly with the margin certifies at that k
    ("poly 1->1 on R : 1/8 + 3/4 x1", "(-1/4,1/2)", 1),
    ("poly 2->1 on (-2,2)x(-1,1) : 1 x1 + -1 x2", "(-1/2,1/2)", 2),
    # a tie of degree 2 does not, and the next k does
    ("poly 1->1 on (-2,2) : 1 x1 + 1 x1^2", "(-3/4,3/4)", 2),
    ("poly 1->1 on R : 1 x1^2", "(-1/4,1/4)", 2),
    # a constant component inside the target, outside it, on its boundary
    ("poly 1->2 on (-2,2) : 1 x1; 1/2", "(-1,1)x(0,1)", 1),
    ("poly 1->2 on (-2,2) : 1 x1; 2", "(-1,1)x(0,1)", None),
    ("poly 1->2 on (-2,2) : 1 x1; 1", "(-1,1)x(0,1)", None),
    # z(0) outside the target or on its boundary: no radius is small enough
    ("poly 1->1 on (-2,2) : 1 + 1 x1", "(-1,1)", None),
    ("poly 1->1 on (-2,2) : 1 x1", "(0,1)", None),
    # the last k the guard tests, and the first it does not
    ("poly 1->1 on (-2,2) : 1 x1",
     f"({-F(1, 2 ** 298)},{F(1, 2 ** 298)})", 298),
    ("poly 1->1 on (-2,2) : 1 x1",
     f"({-F(1, 2 ** 299)},{F(1, 2 ** 299)})", None),
    # a domain that never holds the cap: every box up to k = 298 is tested
    (f"poly 1->1 on ({-F(1, 2 ** 300)},1) : 1 x1", "(-1/2,1/4)", 2),
    (f"poly 1->1 on ({-F(1, 2 ** 300)},1) : 1 x1", "(0,1)", None),
    # and one that holds it from k = 4 on, certified before
    ("poly 1->1 on (-1/16,2) : 1 x1", "(-1/4,1/4)", 2),
    ("poly 1->1 on (-1/16,2) : 1 x1^2 + 1 x1", "(-1/64,1/64)", 7),
])
def test_compose_germ_radius_constructed(core_text, target, k):
    """The identity on the target after the core: the k the halving loop
    stops at, or None for a refusal."""
    f = PolyFun.identity(parse_box(target))
    assert _agrees_with_halving(f, parse_polyfun(core_text)) == k


@pytest.mark.parametrize("core_text, target, evaluations", [
    # z(0) on the boundary of the target ray: refused with no closed form run
    ("poly 2->1 on (-2,2)x(-2,2) : 1 x1 + 1 x1 x2 + 1/3 x2^3", "(0,1)", 0),
    # z(0) outside it, after a first component that fits at once
    ("poly 1->2 on (-2,2) : 1 x1; 1 + 1 x1^2", "(-1,1)x(-1/2,1/2)", 1),
])
def test_compose_germ_refuses_a_nonpositive_margin_at_once(monkeypatch, core_text, target,
                                                           evaluations):
    """A component with z(0) on or outside its target ray fits at no radius,
    so the closed form is not evaluated for it at all."""
    calls, inner = [0], prederiv._centred_fits

    def counting(p, ray, nums):
        fits = inner(p, ray, nums)

        def counted(q):
            calls[0] += 1
            return fits(q)
        return counted
    monkeypatch.setattr(prederiv, "_centred_fits", counting)
    with pytest.raises(CompositionGuardError,
                       match="^no neighbourhood of 0 certified the composition$"):
        compose_germ(PolyFun.identity(parse_box(target)), parse_polyfun(core_text))
    assert calls[0] == evaluations


# ---------------------------------------------------------------------------
# vanishing spaces and canonical directions


def test_vanishing_space_projection_core():
    z = core("poly 2->2 on (-1,1)x(-1,1) : 1 x1; 0")
    assert vanishing_space(z) == [(F(0), F(1))]


def test_vanishing_space_identity_core():
    assert vanishing_space(identity_core(3)) == []


def test_vanishing_space_zero_core():
    z = GermCore(PolyFun.zero(Box.cube(-1, 1, 2), 1))
    assert vanishing_space(z) == [(F(1), F(0)), (F(0), F(1))]


def test_canonical_direction_examples():
    z = core("poly 2->2 on (-1,1)x(-1,1) : 1 x1; 0")
    assert canonical_direction(z, [1, 1]) == (F(1), F(0))
    assert canonical_direction(z, [0, 5]) == (F(0), F(0))
    assert canonical_direction(identity_core(2), [3, 4]) == (F(3), F(4))


def test_canonical_direction_idempotent_and_apply_equivalent():
    rng = random.Random(30)
    cases = 0
    while cases < 5:
        l = rng.randint(2, 3)
        # half of the components ignore some variables to force a kernel
        z = GermCore(rand_pointed(rng, rng.randint(1, l), 1))
        lifted = GermCore(PolyFun.make(
            Box.cube(-2, 2, l),
            [c.remap(l, list(range(1, c.arity + 1))) for c in z.fn.components]))
        basis = vanishing_space(lifted)
        if not basis:
            continue
        cases += 1
        u = rand_direction(rng, l)
        cu = canonical_direction(lifted, u)
        assert canonical_direction(lifted, cu) == cu
        for _ in range(50):
            w = rand_pointed(rng, 1, 1)
            a = apply(PreDeriv.of(lifted, u), w)
            b = apply(PreDeriv.of(lifted, cu), w)
            assert len(a) == len(b) == 1 and a[0].components == b[0].components


def _work_cores():
    """Cores of arity 1 to 3 on (-2,2)^l, half of them factoring through
    fewer coordinates, so that their vanishing space is not 0."""
    rng = random.Random(32)
    cores = []
    for i in range(40):
        l = rng.randint(1, 3)
        z = rand_pointed(rng, rng.randint(1, l) if i % 2 else l, rng.randint(1, 2))
        cores.append(GermCore(PolyFun.make(
            Box.cube(-2, 2, l),
            [c.remap(l, list(range(1, c.arity + 1))) for c in z.components])))
    return rng, cores


def test_vanishing_space_is_computed_once_per_core(monkeypatch):
    """The vanishing space and then the canonical direction of a core, as
    the germs workload asks them: one kernel basis per core."""
    rng, cores = _work_cores()
    bases = _counting(monkeypatch, prederiv, "kernel_basis")
    for n, z in enumerate(cores, start=1):
        basis = vanishing_space(z)
        canonical_direction(z, rand_direction(rng, z.source_dim))
        assert vanishing_space(z) == basis
        assert bases[0] == n
    assert any(vanishing_space(z) for z in cores)


def test_apply_takes_no_partial_derivative(monkeypatch):
    """apply sums the derivative in one walk over the terms of w o z; it
    builds no partial derivative, which the counter would see."""
    rng, cores = _work_cores()
    partials = _counting(monkeypatch, Poly, "partial")
    for z in cores:
        w = rand_pointed(rng, z.target_dim, 1)
        out = apply(PreDeriv.of(z, rand_direction(rng, z.source_dim)), w)
        assert len(out) == 1
    assert partials[0] == 0
    partial(w, 1)
    assert partials[0] == 1


def test_vanishing_space_returns_a_new_list():
    z = core("poly 3->1 on (-1,1)x(-1,1)x(-1,1) : 1 x1")
    basis = vanishing_space(z)
    assert basis == [(F(0), F(1), F(0)), (F(0), F(0), F(1))]
    basis.append((F(1), F(0), F(0)))
    basis[0] = (F(9), F(9), F(9))
    assert vanishing_space(z) == [(F(0), F(1), F(0)), (F(0), F(0), F(1))]
    assert canonical_direction(z, [1, 2, 3]) == (F(1), F(0), F(0))


def test_equal_cores_compare_and_hash_alike_with_a_cached_basis():
    text = "poly 2->2 on (-1,1)x(-1,1) : 1 x1; 0"
    cached, fresh = core(text), core(text)
    vanishing_space(cached)
    assert cached == fresh and hash(cached) == hash(fresh)
    assert {cached: 1}[fresh] == 1
    assert PreDeriv.of(cached, [1, 2]) == PreDeriv.of(fresh, [1, 2])
    assert cached != core("poly 2->2 on (-1,1)x(-1,1) : 1 x2; 0")


def test_vanishing_direction_annihilates():
    z = core("poly 2->2 on (-1,1)x(-1,1) : 1 x1; 0")
    w = parse_polyfun("poly 2->1 on RxR : 1 x1 x2 + 1 x2")
    out = apply(PreDeriv.of(z, [0, 1]), w)
    assert all(g.components[0].is_zero for g in out)


# ---------------------------------------------------------------------------
# kernel criterion


def test_kernel_by_linearity():
    z = core("poly 1->2 on (-1,1) : 1 x1; 1 x1^2")
    dv = PreDeriv.of(z, [1])
    vec = eval_smooth(dv)
    counter = PreDeriv.of(identity_core(2), [-c for c in vec])
    assert smooth_kernel_test(dv + counter)
    assert not smooth_kernel_test(PreDeriv.of(identity_core(2), [1, 0]))
    assert smooth_kernel_test(PreDeriv.zero(2))


# ---------------------------------------------------------------------------
# the nontriviality witness


def test_witness_single_factor():
    out = nontriviality_witness(1, 1, [F(3)])
    assert out == parse_polyfun("poly 2->1 on RxR : 3 x2 + -3 x1")


def test_witness_two_factors_first_component():
    a = F(5, 2)
    out = nontriviality_witness(2, 1, [a, F(7)])
    expected = scale(Poly.var(4, 2).sub(Poly.var(4, 1)).mul(
        Poly.var(4, 4).sub(Poly.var(4, 3))), a)
    assert out.components[0] == expected


def test_witness_zero_direction():
    out = nontriviality_witness(2, 2, [F(0), F(0)])
    assert out.components[0].is_zero


def test_witness_index_range():
    with pytest.raises(PreDerivError):
        nontriviality_witness(2, 3, [F(1), F(1)])


# ---------------------------------------------------------------------------
# rational linear algebra helpers


def test_kernel_basis_reduced():
    rows = [[F(1), F(2), F(3)], [F(2), F(4), F(6)]]
    basis = kernel_basis(rows, 3)
    assert basis == [(F(-2), F(1), F(0)), (F(-3), F(0), F(1))]


def _sympy_rref(sympy, rows, ncols):
    """sympy's reduced echelon form of the matrix, zero rows dropped."""
    reduced, _ = sympy.Matrix(len(rows), ncols, [sympy.Rational(v.numerator, v.denominator)
                                                 for row in rows for v in row]).rref()
    out = [[F(int(v.p), int(v.q)) for v in reduced.row(r)] for r in range(reduced.rows)]
    return [row for row in out if any(row)]


def test_rref_matches_sympy():
    """Seeded rational matrices, among them empty ones, zero rows, repeated
    rows, zero columns and mixed denominators."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(61)
    for _ in range(300):
        nrows, ncols = rng.randint(0, 5), rng.randint(0, 5)
        zero_cols = {c for c in range(ncols) if rng.random() < 0.2}
        rows = [[F(0) if c in zero_cols or rng.random() < 0.3
                 else F(rng.randint(-9, 9), rng.choice((1, 2, 3, 6, 7, 10)))
                 for c in range(ncols)] for _ in range(nrows)]
        if rows and rng.random() < 0.3:
            rows.insert(rng.randint(0, len(rows)), [F(0)] * ncols)
        if rows and rng.random() < 0.3:
            rows.append(list(rng.choice(rows)))
        red = prederiv.rref(rows)
        assert red == _sympy_rref(sympy, rows, ncols)
        assert all(type(v) is F for row in red for v in row)
    assert prederiv.rref([]) == [] and prederiv.rref([[], []]) == []


_entries = st.one_of(
    st.just(F(0)),
    st.integers(-10 ** 30, 10 ** 30),
    st.builds(F, st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 30)),
    st.builds(F, st.integers(-9, 9), st.integers(1, 9)))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 4).flatmap(
    lambda n: st.tuples(*[st.lists(_entries, min_size=n, max_size=n)] * 2)))
def test_dot_is_the_exact_sum_of_products(vectors):
    u, v = vectors
    got = dot(u, v)
    assert got == sum((a * b for a, b in zip(u, v)), F(0))
    assert type(got) is F


def test_projection_orthogonality():
    basis = [(F(1), F(1), F(0))]
    proj = project_onto_span([F(2), F(0), F(5)], basis)
    assert proj == (F(1), F(1), F(0))


def test_jacobian_at_zero():
    f = parse_polyfun("poly 2->2 on RxR : 1 x1 + 3 x2 + 1 x1^2; 2 x2")
    assert jacobian_at_zero(f) == [[F(1), F(3)], [F(0), F(2)]]


def test_jacobian_at_zero_is_the_derivative_at_zero():
    """The Jacobian read from the linear coefficients equals the partial
    derivatives evaluated at 0, whatever the domain: (-2,2)^l, R^l, or a
    random box, which need not contain the unit cube or even 0."""
    rng = random.Random(51)
    domains = [lambda l: Box.cube(-2, 2, l), Box.full, lambda l: rand_box(rng, l)]
    for _ in range(300):
        l = rng.randint(0, 3)
        f = rand_polyfun(rng, rng.choice(domains)(l), rng.randint(1, 3), rng.randint(0, 4))
        zero = [F(0)] * l
        assert jacobian_at_zero(f) == [[p.partial(j).eval(zero) for j in range(1, l + 1)]
                                       for p in f.components]


# ---------------------------------------------------------------------------
# text form


def test_prederiv_text_roundtrip():
    z = core("poly 1->2 on (-1,1) : 1 x1; 1 x1^2")
    dv = PreDeriv.of(z, [F(1), ]) + PreDeriv.of(identity_core(2), [F(1), F(-2)])
    text = format_prederiv(dv)
    back = parse_prederiv(text)
    assert back == dv


def test_prederiv_zero_text():
    dv = PreDeriv.zero(3)
    assert parse_prederiv(format_prederiv(dv)) == dv


def test_apply_arity_zero_core_gives_zero_germ():
    z = GermCore(PolyFun.make(Box.point(), [Poly.zero(0), Poly.zero(0)]))
    dv = PreDeriv.of(z, [])
    out = apply(dv, parse_polyfun("poly 2->1 on RxR : 1 x1 x2 + 3 x1"))
    assert len(out) == 1 and out[0].components[0].is_zero


def test_apply_additive_in_the_function_argument():
    rng = random.Random(44)
    for _ in range(15):
        l, m = rng.randint(1, 2), rng.randint(1, 2)
        z = GermCore(rand_pointed(rng, l, m))
        dv = PreDeriv.of(z, rand_direction(rng, l))
        w1 = rand_pointed(rng, m, 1)
        w2 = rand_pointed(rng, m, 1).restrict(w1.domain)
        from idcalc.polynomials import vsum
        split = apply(dv, w1)[0].components[0].add(apply(dv, w2)[0].components[0])
        joint = apply(dv, vsum(w1, w2))[0].components[0]
        assert split == joint


def test_eval_smooth_linear_in_directions():
    rng = random.Random(45)
    for _ in range(20):
        l, m = rng.randint(1, 3), rng.randint(1, 2)
        z = GermCore(rand_pointed(rng, l, m))
        u1, u2 = rand_direction(rng, l), rand_direction(rng, l)
        merged = eval_smooth(PreDeriv.of(z, [a + b for a, b in zip(u1, u2)]))
        summed = tuple(a + b for a, b in zip(eval_smooth(PreDeriv.of(z, u1)),
                                             eval_smooth(PreDeriv.of(z, u2))))
        assert merged == summed
        a = F(rng.randint(-4, 4), rng.choice((1, 2)))
        assert eval_smooth(PreDeriv.of(z, [a * c for c in u1])) == \
            tuple(a * c for c in eval_smooth(PreDeriv.of(z, u1)))


def test_apply_rejects_mismatches():
    z = core("poly 1->2 on (-1,1) : 1 x1; 1 x1^2")
    dv = PreDeriv.of(z, [1])
    with pytest.raises(PreDerivError):
        apply(dv, parse_polyfun("poly 1->1 on R : 1 x1"))  # arity != target
    with pytest.raises(PreDerivError):
        apply(dv, parse_polyfun("poly 2->2 on RxR : 1 x1; 1 x2"))  # not scalar
    with pytest.raises(PreDerivError):
        apply(dv, parse_polyfun("poly 2->1 on (1,2)x(1,2) : 1 x1"))  # 0 outside


def test_pre_diff_rejects_unpointed_map():
    z = core("poly 1->2 on (-1,1) : 1 x1; 1 x1^2")
    dv = PreDeriv.of(z, [1])
    with pytest.raises(PreDerivError):
        pre_diff(parse_polyfun("poly 2->1 on RxR : 1 x1 + 1"), dv)
