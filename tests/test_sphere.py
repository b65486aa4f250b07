import contextlib
import hashlib
import io
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from idcalc.cli import main
from idcalc.sphere import (_CERT_OFFSETS, _CSV_ROW, MAX_GRID, SphereError, _core_slope,
                           _csv_rows, _norm, _prepare, comb_certificate, comb_classical,
                           comb_core, comb_grid, make_bridge, map_north, map_south,
                           transition)
from oracles import bridge_slope, slope_at_half

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


def test_norm_of_two_columns_is_the_reduction_bit_for_bit():
    """The two-column shortcut adds the same two squares as the general
    reduction, on contiguous, transposed and strided layouts."""
    rng = np.random.default_rng(3)
    base = rng.uniform(-1.0, 1.0, size=(401, 6))
    for x in (base[:, :2], base[:, 3:5].copy(), base.T[:2].T, base[::3, ::4],
              base[7, :2], base.reshape(401, 3, 2)):
        assert x.shape[-1] == 2
        expected = np.sqrt(np.sum(x ** 2, axis=-1))
        assert _norm(x).tobytes() == expected.tobytes()


def test_map_rejects_outside_disc():
    with pytest.raises(SphereError):
        map_north([1.0, 0.5])
    with pytest.raises(SphereError):
        map_north([math.nan, 0.0])


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
    with pytest.raises(SphereError):
        transition(np.array([math.nan, 0.5]))


# ---------------------------------------------------------------------------
# the bridge


def test_bridge_invariants_sampled():
    br = make_bridge(EPS)
    assert abs(br.value(0.5)) < 1e-12
    assert br.value(0.1) == pytest.approx(0.1 - 4 / 3, abs=0)
    assert br.value(0.9) == pytest.approx(0.9, abs=0)
    rs = np.linspace(-0.5, 1.5, 10_000)
    vals = br.value(rs)
    slopes = bridge_slope(br, rs)
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


def test_bridge_refuses_an_eps_that_leaves_an_arc_of_zero_width():
    """For the float just below 1/6, 2/3 - eps rounds to exactly 1/2, so the
    second arc has zero width; one float further down the first arc is not
    increasing."""
    eps = math.nextafter(1 / 6, 0)
    assert eps == 0.16666666666666663 and 2 / 3 - eps == 0.5
    with pytest.raises(SphereError, match="bridge arcs are not strictly increasing"):
        make_bridge(eps)
    with pytest.raises(SphereError, match="bridge arcs are not strictly increasing"):
        make_bridge(0.1666666666666666)


# ---------------------------------------------------------------------------
# the combing field


def test_classical_projection_constant_inside():
    assert np.allclose(comb_classical([0.2, 0.0], 2, EPS), [-1.0, 0.0])


def test_core_is_pointed():
    br = make_bridge(EPS)
    for y in ([0.5, 0.0], [0.0, 0.5], [0.7, 0.2]):
        assert np.allclose(comb_core(_prepare(y, br), 0.0), [0.0, 0.0], atol=1e-14)


def test_projection_vanishes_on_half_circle_perpendicular_points():
    # on the radius-1/2 circle the projection is -beta'(1/2)(y.e1)y/|y|^2:
    # it vanishes exactly where y is perpendicular to e1 and has norm
    # beta'(1/2) at y = (1/2)e1, so the vanishing locus sits on radius 1/2
    for y in ([0.0, 0.5], [0.0, -0.5]):
        assert np.linalg.norm(comb_classical(y, 2, EPS)) < 5e-5
    along = np.linalg.norm(comb_classical([0.5, 0.0], 2, EPS))
    br = make_bridge(EPS)
    assert along > slope_at_half(br) / 2


def test_projection_large_outside_transition_zone():
    assert np.linalg.norm(comb_classical([0.8, 0.0], 2, EPS)) > 0.1


def test_certificate_constant_region():
    assert comb_certificate([0.2, 0.0], 2, EPS) == pytest.approx(1.0, abs=1e-9)


def test_certificate_positive_at_vanishing_point():
    cert = comb_certificate([0.0, 0.5], 2, EPS)
    assert cert > 1e-6


def test_certificate_lower_bound_along_e1():
    br = make_bridge(EPS)
    assert comb_certificate([0.5, 0.0], 2, EPS) >= slope_at_half(br) / 2


def test_grid_sweep_small():
    data = comb_grid(2, 60, EPS)
    assert abs(data["vanishing_radius"] - 0.5) <= 0.02
    assert data["min_certificate"] > 1e-6
    mask = data["projection_norm"] < 1e-4
    assert np.all(np.abs(data["radii"][mask] - 0.5) < 2e-2)


def test_grid_requires_n2():
    with pytest.raises(SphereError):
        comb_grid(3, 10, EPS)


def test_grid_above_limit_is_refused_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(SphereError, match=f"grid must be <= {MAX_GRID}, got {MAX_GRID + 1}"):
            comb_grid(2, MAX_GRID + 1, EPS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024  # one grid axis alone would be 8 kB, the sweep ~100 MB


def test_classical_projection_rejects_outside_disc():
    with pytest.raises(SphereError):
        comb_classical([1.2, 0.0], 2, EPS)
    with pytest.raises(SphereError):
        comb_classical([0.5, 0.0], 3, EPS)
    with pytest.raises(SphereError):
        comb_certificate([1.2, 0.0], 2, EPS)
    with pytest.raises(SphereError):
        comb_certificate([0.5, 0.0], 3, EPS)
    with pytest.raises(SphereError):
        comb_classical([math.nan, 0.0], 2, EPS)
    with pytest.raises(SphereError):
        comb_certificate([math.nan, 0.0], 2, EPS)


@pytest.mark.parametrize("eps", [0.01, 0.1, 0.15])
@pytest.mark.parametrize("n", [2, 3, 8])
def test_certificate_offsets_read_as_one_offset_at_a_time(n, eps):
    """The certificate's batched offsets run on 21 copies of one point, a set
    wholly in one region, and read what each offset alone reads, bit for
    bit, in both regions."""
    br = make_bridge(eps)
    rng = np.random.default_rng(n)
    for rad in np.linspace(0.0, 0.98, 24):
        d = rng.normal(size=n)
        y = rad * d / np.linalg.norm(d)
        core = _prepare(y[None], br)
        alone = max(float(np.sqrt(sum(c * c for c in _core_slope(core, t)))[0])
                    for t in _CERT_OFFSETS)
        assert comb_certificate(y, n, eps) == alone


def test_classical_projection_is_the_grid_row():
    # the scalar projection and the sweep run the same core, bit for bit
    data = comb_grid(2, 60, EPS)
    for pt, row in zip(data["points"], data["projection"]):
        assert np.array_equal(comb_classical(pt, 2, EPS), row)


# ---------------------------------------------------------------------------
# output pins: sha256 digests of the float layer's outputs, recorded before
# the offset-independent part of the core was computed once per point set


# per dimension n: classical projection bytes and certificate reprs of 40 points
POINT_DIGESTS = {
    1: "ccce83660e933e8b7448a32293e6beb1841902e9815a066e493af3222607d385",
    2: "cc1343a70b8358c1abff722d26a38a4e9f819ac3bc68e3b33fd729fefb083dda",
    3: "c4d6e9b9f9bd56359e12b8de30ad30995cd37a76396b40857032f444627950b8",
    4: "1867a3a0b0a20daa7960910dcc92902643167c1e150dc963171db40ee33b85f5",
    5: "587021552ba06b0ce5e5319e99b65a2d177ae87ef94e298d6bcce631af2efa7a",
    6: "221b347ac3748c7d3be15a953960633fd647843b2637a075bfaa42f60a8be9e3",
    7: "5c2c330628a3c2b709bb8716cb8bc096654137dcd9adcded60f3087a58600b0e",
    8: "a7abf5f63870ad44e19a3085ccbaf505b6fec6ac5cfaf161715db9731fa93578",
    9: "d354c3592a9ab9efa174fef48a1c711a45afd146be49242a8e7254080bcee8ca",
    10: "2914a88228a6edea7d1e00f4302f8e1416f1c776a4447e1c92407120c5bf4f89",
    11: "ac0ff664d65e1ce06c31ebffba9e085a5901931c8d062dab24c0738c4d53d17f",
    12: "0ea17c21e2c0a6ce6f023e570291ae5b8cda03e580f2ac2b1a9eae146edcf09b",
}


def _pin_points(n: int) -> list:
    """40 seeded chart points in R^n, radii uniform on [0, 0.98]: both the
    inner region and the annulus."""
    rng = random.Random(f"pin:{n}")
    pts = []
    for _ in range(40):
        d = [rng.gauss(0.0, 1.0) for _ in range(n)]
        s = math.sqrt(sum(c * c for c in d)) or 1.0
        rad = rng.uniform(0.0, 0.98)
        pts.append([rad * c / s for c in d])
    return pts


@pytest.mark.parametrize("n", sorted(POINT_DIGESTS))
def test_scalar_outputs_are_pinned(n):
    # n >= 8 catches a change of _norm's reduction order: numpy's unrolled
    # pairwise sum rounds differently from a column-by-column sum there
    h = hashlib.sha256()
    for y in _pin_points(n):
        h.update(comb_classical(y, n, EPS).tobytes())
        h.update(repr(comb_certificate(y, n, EPS)).encode())
    assert h.hexdigest() == POINT_DIGESTS[n]


@pytest.mark.parametrize("grid, digest, summary", [
    (25, "f3ccfcf7e18085084d4f9da15861f0ed0372286710ec55a9b5deaed044f29255",
     "vanishing-radius=0.4950 min-certificate=2.312e-02 grid=25 eps=0.1"),
    (200, "3a2fc7d64a3e5b14aabac8e93ceff5962bf78012ab584fbda37638ea857325af",
     "vanishing-radius=0.5025 min-certificate=2.948e-02 grid=200 eps=0.1"),
    # recorded before the core worked on the annulus block alone and the CSV
    # digits came from integers
    (61, "ff31121b56d42bcf5f29bdb3d5aef7e57ef8c6ac42ebbc5eaf4985ebdaa11776",
     "vanishing-radius=0.4950 min-certificate=1.176e-02 grid=61 eps=0.05"),
    (120, "044f42a2e87957426168d338d156deb48c8386fdabbcc5cdff78a23fec4df8a6",
     "vanishing-radius=0.5075 min-certificate=6.148e-01 grid=120 eps=0.16"),
])
def test_comb_sphere_csv_is_pinned(tmp_path, grid, digest, summary):
    path = tmp_path / "grid.csv"
    eps = summary.rsplit("eps=", 1)[1]
    argv = ["comb-sphere", "--grid", str(grid)] + (["--eps", eps] if eps != "0.1" else [])
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(argv + ["--out", str(path)]) == 0
    data = path.read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest
    assert err.getvalue() == summary + "\n"
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    assert out.getvalue().encode() == data


# sha256 of each comb_grid(2, 60, EPS) array's bytes, recorded with the CSV
# pins for grids 61 and 120
GRID_60_DIGESTS = {
    "points": "4e68f2ddd0cf810af37a9e293b92312a0c73690cab763bd12f1b6ff23260ccd1",
    "projection": "0485ec1ec9009f3f895ae931c69d36e46ef153b35622b2977d9bb4f3d2610832",
    "projection_norm": "dd1d4b15be975d65346e8b30097aa35076d7737d54d03a78a6dacce333ae1336",
    "certificate": "79d69322dd8070544bababbe6416ed3359ea026ab0bbd9846daeed6d9ef34af5",
    "radii": "af4fd9f93e5275d968125dca00227935a387e21440df5810c26c20f5dd463e7c",
}


def test_grid_arrays_are_pinned():
    data = comb_grid(2, 60, EPS)
    got = {k: hashlib.sha256(data[k].tobytes()).hexdigest() for k in GRID_60_DIGESTS}
    assert got == GRID_60_DIGESTS
    assert all(data[k].dtype == np.float64 for k in GRID_60_DIGESTS)
    assert data["projection"].shape == (2724, 2)


# ---------------------------------------------------------------------------
# the CSV formatter against Python's own %


def _percent(table: np.ndarray) -> str:
    return (_CSV_ROW * len(table)) % tuple(table.ravel().tolist())


def _rows_of(values) -> np.ndarray:
    """Each value in all six columns, then alone in each column among
    harmless neighbours, so it meets both %.6f and %.6e on the fast path
    and on the fallback."""
    rows = [[v] * 6 for v in values]
    rows += [np.roll([v, 0.125, -0.25, 1.5e-3, 2.0, 7.0e-2], k) for v in values for k in range(6)]
    return np.array(rows, dtype=float)


def _neighbours(v: float) -> list:
    return [v, math.nextafter(v, -math.inf), math.nextafter(v, math.inf)]


def _edge_values() -> list:
    vals = []
    # exact ties of %.6e: 7 digits and a half, at several decades
    for d in range(0, 9, 2):
        for j in (1000000, 1234567, 2718281, 9999999):
            vals += _neighbours((j + 0.5) * 10.0 ** d)
    # ties of %.6e that a float can only approach, below 1
    for d in (-1, -4, -9, -15):
        vals += _neighbours(1.2345675 * 10.0 ** d)
    # exact ties of %.6f: odd multiples of 1/128 = 0.0078125
    for j in (1, 3, 37, 127, 639, 1151):
        vals += _neighbours(j / 128)
    # the mantissa rolls over into the next decade
    for k in range(-20, 31, 5):
        vals += _neighbours(9.9999995 * 10.0 ** k)
    vals += _neighbours(0.9999995) + _neighbours(8.9999995) + _neighbours(9.0)
    # decade edges, signed zeros, subnormals, huge exponents, non-finite
    for k in (-17, -16, -7, -1, 0, 1, 6, 7, 22, 28, 29, 99, 100):
        vals += _neighbours(10.0 ** k)
    vals += [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, math.inf, -math.inf,
             math.nan, 1e100, 1e-100, -1e100, -1e-100, 1e300, -1e-300]
    # negatives that round to zero print a sign
    vals += [-1e-9, -4.9e-7, -5e-7, -5.1e-7]
    return vals + [-v for v in vals]


@pytest.mark.filterwarnings("error")
def test_csv_rows_match_percent_on_edge_values():
    table = _rows_of(_edge_values())
    got = _csv_rows(table)
    assert got == _percent(table)
    assert "-0.000000," in got and "-0.000000e+00," in got


@pytest.mark.filterwarnings("error")
def test_csv_rows_match_percent_on_the_sweep():
    data = comb_grid(2, 60, EPS)
    table = np.column_stack([data["points"], data["projection"],
                             data["projection_norm"], data["certificate"]])
    assert _csv_rows(table) == _percent(table)


_near_ties = st.builds(lambda j, d, k: _neighbours((j + 0.5) * 10.0 ** d)[k],
                       st.integers(0, 10 ** 8), st.integers(-20, 20), st.integers(0, 2))


@pytest.mark.filterwarnings("error")
@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(), st.floats(-10, 10), st.floats(-1e-4, 1e-4), _near_ties),
                min_size=1, max_size=36))
def test_csv_rows_match_percent(values):
    values += [0.0] * (-len(values) % 6)
    table = np.array(values, dtype=float).reshape(-1, 6)
    assert _csv_rows(table) == _percent(table)
