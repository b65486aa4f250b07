import math
import random
from fractions import Fraction

import numpy as np
import pytest

from idcalc.boxes import Box
from idcalc.polynomials import Poly, PolyFun, parse_polyfun
from idcalc.prederiv import PreDeriv, eval_smooth, identity_core
from idcalc.sphere import (SphereError, chart_differential,
                           comb_certificate, comb_classical, comb_core,
                           comb_grid, make_bridge, map_north, map_south,
                           transition)

F = Fraction
EPS = 0.1


def test_map_north_pole():
    assert np.allclose(map_north([0.0, 0.0]), [0, 0, 1], atol=1e-15)


def test_map_south_pole():
    assert np.allclose(map_south([0.0, 0.0]), [0, 0, -1], atol=1e-15)


def test_equator_at_two_thirds():
    pt = map_north([2 / 3, 0.0])
    assert abs(pt[-1]) < 1e-12


def test_unit_norm_random():
    rng = random.Random(1)
    for _ in range(100):
        x = np.array([rng.uniform(-0.7, 0.7), rng.uniform(-0.6, 0.6)])
        if np.linalg.norm(x) >= 1:
            continue
        assert abs(np.linalg.norm(map_north(x)) - 1) <= 1e-12
        assert abs(np.linalg.norm(map_south(x)) - 1) <= 1e-12


def test_map_rejects_outside_disc():
    with pytest.raises(SphereError):
        map_north([1.0, 0.5])


def test_transition_fixes_equator():
    out = transition(np.array([2 / 3, 0.0]))
    assert np.allclose(out, [2 / 3, 0.0], atol=1e-15)


def test_transition_closed_form():
    out = transition(np.array([0.5, 0.0]))
    assert np.allclose(out, [5 / 6, 0.0], atol=1e-15)


def test_transition_matches_charts():
    # the chart composition and the closed form agree on the annulus
    rng = random.Random(2)
    for _ in range(50):
        r = rng.uniform(0.34, 0.99)
        th = rng.uniform(0, 2 * math.pi)
        x = np.array([r * math.cos(th), r * math.sin(th)])
        north = map_north(x)
        t = transition(x)
        south = map_south(t)
        assert np.allclose(north, south, atol=1e-12)


def test_transition_involution():
    rng = random.Random(3)
    for _ in range(100):
        r = rng.uniform(0.34, 0.99)
        th = rng.uniform(0, 2 * math.pi)
        x = np.array([r * math.cos(th), r * math.sin(th)])
        err = np.linalg.norm(transition(transition(x)) - x)
        assert err < 1e-10


def test_transition_rejects_outside_annulus():
    with pytest.raises(SphereError):
        transition(np.array([0.2, 0.0]))


# ---------------------------------------------------------------------------
# the bridge


def test_bridge_invariants_sampled():
    br = make_bridge(EPS)
    assert abs(br.value(0.5)) < 1e-12
    assert br.value(0.1) == pytest.approx(0.1 - 4 / 3, abs=0)
    assert br.value(0.9) == pytest.approx(0.9, abs=0)
    rs = np.linspace(-0.5, 1.5, 10_000)
    vals = br.value(rs)
    slopes = br.slope(rs)
    assert np.all(slopes > 0)
    assert np.all(np.diff(vals) > 0)
    low = rs <= br.left_knot
    assert np.allclose(vals[low], rs[low] - 4 / 3, atol=0)
    high = rs >= br.right_knot
    assert np.allclose(vals[high], rs[high], atol=0)


def test_bridge_rejects_bad_eps():
    with pytest.raises(SphereError):
        make_bridge(0.2)
    with pytest.raises(SphereError):
        make_bridge(0.0)


# ---------------------------------------------------------------------------
# the combing field


def test_classical_projection_constant_inside():
    assert np.allclose(comb_classical([0.2, 0.0], 2, EPS), [-1.0, 0.0])


def test_core_is_linear_inside():
    br = make_bridge(EPS)
    assert np.allclose(comb_core([0.1, 0.2], 0.25, br), [-0.25, 0.0])


def test_core_is_pointed():
    br = make_bridge(EPS)
    for y in ([0.5, 0.0], [0.0, 0.5], [0.7, 0.2]):
        assert np.allclose(comb_core(y, 0.0, br), [0.0, 0.0], atol=1e-14)


def test_projection_vanishes_on_half_circle_perpendicular_points():
    # on the radius-1/2 circle the projection is -beta'(1/2)(y.e1)y/|y|^2:
    # it vanishes exactly where y is perpendicular to e1 and has norm
    # beta'(1/2) at y = (1/2)e1, so the vanishing locus sits on radius 1/2
    for y in ([0.0, 0.5], [0.0, -0.5]):
        assert np.linalg.norm(comb_classical(y, 2, EPS)) < 5e-5
    along = np.linalg.norm(comb_classical([0.5, 0.0], 2, EPS))
    br = make_bridge(EPS)
    assert along > br.slope_at_half() / 2


def test_projection_large_outside_transition_zone():
    assert np.linalg.norm(comb_classical([0.8, 0.0], 2, EPS)) > 0.1


def test_certificate_constant_region():
    assert comb_certificate([0.2, 0.0], 2, EPS) == pytest.approx(1.0, abs=1e-9)


def test_certificate_positive_at_vanishing_point():
    cert = comb_certificate([0.0, 0.5], 2, EPS)
    assert cert > 1e-6


def test_certificate_lower_bound_along_e1():
    br = make_bridge(EPS)
    assert comb_certificate([0.5, 0.0], 2, EPS) >= br.slope_at_half() / 2


def test_grid_sweep_small():
    data = comb_grid(2, 60, EPS)
    assert abs(data["vanishing_radius"] - 0.5) <= 0.02
    assert data["min_certificate"] > 1e-6
    mask = data["projection_norm"] < 1e-4
    assert np.all(np.abs(data["radii"][mask] - 0.5) < 2e-2)


def test_grid_requires_n2():
    with pytest.raises(SphereError):
        comb_grid(3, 10, EPS)


# ---------------------------------------------------------------------------
# chart differentials (exact layer)


def test_chart_differential_identity():
    dv = PreDeriv.of(identity_core(2), [F(1), F(2)])
    f = PolyFun.identity(Box.cube(-5, 5, 2))
    out = chart_differential(f, dv, [F(1), F(1)])
    assert eval_smooth(out) == eval_smooth(dv)


def test_chart_differential_linear_map_conjugates():
    dv = PreDeriv.of(identity_core(2), [F(1), F(-1)])
    a = parse_polyfun("poly 2->2 on RxR : 2 x1 + 1 x2; 1 x2")
    out = chart_differential(a, dv, [F(0), F(0)])
    assert eval_smooth(out) == (F(1), F(-1))  # A @ (1,-1) = (1,-1)
    b = parse_polyfun("poly 2->2 on RxR : 3 x1; 1 x1 + 1 x2")
    out2 = chart_differential(b, dv, [F(2), F(3)])
    assert eval_smooth(out2) == (F(3), F(0))


def test_chart_differential_functorial():
    rng = random.Random(6)
    from idcalc.prederiv import compose_germ
    for _ in range(50):
        dv = PreDeriv.of(identity_core(2),
                         [F(rng.randint(-3, 3)), F(rng.randint(-3, 3))])
        f = PolyFun.make(Box.full(2), [
            Poly.make(2, {(1, 0): F(rng.randint(1, 3)), (0, 1): F(rng.randint(-2, 2)),
                          (2, 0): F(rng.randint(-2, 2))}),
            Poly.make(2, {(0, 1): F(rng.randint(1, 3))})])
        g = PolyFun.make(Box.full(2), [
            Poly.make(2, {(1, 0): F(rng.randint(1, 3))}),
            Poly.make(2, {(0, 1): F(rng.randint(1, 3)), (1, 1): F(rng.randint(-2, 2))})])
        p = [F(0), F(0)]
        seq = chart_differential(f, chart_differential(g, dv, p), p)
        gp = [c.eval([F(0), F(0)]) for c in g.components]
        joint = chart_differential(compose_germ(f, g), dv, p)
        assert eval_smooth(seq) == eval_smooth(joint)


def test_chart_differential_requires_interior_point():
    dv = PreDeriv.of(identity_core(1), [F(1)])
    f = parse_polyfun("poly 1->1 on (0,1) : 1 x1")
    with pytest.raises(SphereError):
        chart_differential(f, dv, [F(5)])


def test_classical_projection_rejects_outside_disc():
    with pytest.raises(SphereError):
        comb_classical([1.2, 0.0], 2, EPS)
    with pytest.raises(SphereError):
        comb_classical([0.5, 0.0], 3, EPS)
    with pytest.raises(SphereError):
        comb_certificate([1.2, 0.0], 2, EPS)
    with pytest.raises(SphereError):
        comb_certificate([0.5, 0.0], 3, EPS)


def test_classical_projection_is_the_grid_row():
    # the scalar projection and the sweep run the same core, bit for bit
    data = comb_grid(2, 60, EPS)
    for pt, row in zip(data["points"], data["projection"]):
        assert np.array_equal(comb_classical(pt, 2, EPS), row)
