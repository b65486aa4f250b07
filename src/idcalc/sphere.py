"""Sphere combing: chart maps, the annulus transition, the monotone
bridge, and the combing field with its vanishing-locus diagnostics.

This is the one floating-point layer of the package (the chart maps are
transcendental).  Derivatives of the combing core are central differences
with step 1e-5 in the offset t, taken through one batched core map that
serves a single point, a certificate's offsets and a grid sweep alike.
The core runs in two stages.  `_prepare` does once per point set the work
that does not depend on t: the radius check, the split into the inner
region and the annulus, and the transition T(y) and bridged point B(y) of
the annulus points.  Each offset then only shifts T(y) by t e1, transitions
and bridges the shifted point, and subtracts B(y) (`comb_core`).
Chart-transition differentials on polynomial transitions stay exact and
delegate to the pre-derivation module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Sequence, Union

import numpy as np

from .boxes import IdcalcError, rat
from .polynomials import PolyFun, compose, const_fun, eval_at, trasl, vsum
from .prederiv import PreDeriv, pre_diff

FD_STEP = 1e-5
CERT_RADIUS = 1e-3  # certificate offsets t range over [-CERT_RADIUS, CERT_RADIUS]
CERT_SAMPLES = 21  # offsets per comb_certificate call
GRID_CERT_SAMPLES = 9  # offsets per grid point in comb_grid
GRID_EXTENT = 0.99  # comb_grid samples the disc of this radius
# Largest comb_grid side.  The sweep is a display path whose time, memory
# and CSV size grow with the square of the side; 1000 resolves the disc 5x
# finer than the default of 200.  Measured for `comb-sphere --out` (Python
# 3.11, numpy 2.4, 2-core host): 0.3 s, 37 MB peak resident and a 2.2 MB
# CSV at 200; 4.3 s, 186 MB and 56 MB at 1000.
MAX_GRID = 1000
_CSV_CHUNK = 1024  # sweep rows turned into Python floats at a time


class SphereError(IdcalcError):
    pass


# ---------------------------------------------------------------------------
# chart maps


def _norm(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1] == 2:  # the same one addition per row, without a reduction
        a, b = x[..., 0], x[..., 1]
        return np.sqrt(a * a + b * b)
    return np.sqrt(np.sum(x ** 2, axis=-1))


def _sin_ratio(r: np.ndarray) -> np.ndarray:
    """sin(3 pi r / 4) / r with the removable singularity at r = 0."""
    a = 0.75 * math.pi
    return a * np.sinc(a * r / math.pi)


def map_north(x: Sequence[float]) -> np.ndarray:
    """Disc chart onto the upper cap; 0 goes to the north pole and radius
    2/3 lands on the equator."""
    x = np.asarray(x, dtype=float)
    r = _norm(x)
    if np.any(r >= 1):
        raise SphereError("chart points must have norm < 1")
    ang = 0.75 * math.pi * r
    return np.concatenate([_sin_ratio(r)[..., None] * x, np.cos(ang)[..., None]], axis=-1)


def map_south(x: Sequence[float]) -> np.ndarray:
    """Disc chart onto the lower cap; 0 goes to the south pole."""
    pt = map_north(x)
    pt[..., -1] = -pt[..., -1]
    return pt


def transition(x: np.ndarray) -> np.ndarray:
    """Between-chart map on the annulus 1/3 < |x| < 1: x -> (4/3 - |x|) x/|x|.
    An involution."""
    x = np.asarray(x, dtype=float)
    r = _norm(x)
    if np.any((r <= 1 / 3) | (r >= 1)):
        raise SphereError("transition needs 1/3 < |x| < 1")
    return _transition_unchecked(x)


def _transition_unchecked(x: np.ndarray) -> np.ndarray:
    r = _norm(x)
    return ((4.0 / 3.0 - r) / r)[..., None] * x


# ---------------------------------------------------------------------------
# the monotone bridge


def _hermite(a: float, b: float, va: float, vb: float, da: float, db: float):
    """Cubic Hermite coefficients on [a, b] in the local variable s=(r-a)/h."""
    h = b - a
    c0 = va
    c1 = da * h
    c2 = 3 * (vb - va) - h * (2 * da + db)
    c3 = -2 * (vb - va) + h * (da + db)
    return c0, c1, c2, c3, a, h


def _hermite_eval(coeffs, r):
    c0, c1, c2, c3, a, h = coeffs
    s = (np.asarray(r, dtype=float) - a) / h
    return c0 + s * (c1 + s * (c2 + s * c3))


def _hermite_deriv(coeffs, r):
    c0, c1, c2, c3, a, h = coeffs
    s = (np.asarray(r, dtype=float) - a) / h
    return (c1 + s * (2 * c2 + 3 * s * c3)) / h


def _hermite_deriv_min(coeffs) -> float:
    """Exact minimum of the derivative (a quadratic in s) over [a, b]."""
    c0, c1, c2, c3, a, h = coeffs
    cands = [0.0, 1.0]
    if c3 != 0:
        vertex = -c2 / (3 * c3)
        if 0.0 < vertex < 1.0:
            cands.append(vertex)
    return min((c1 + s * (2 * c2 + 3 * s * c3)) / h for s in cands)


@dataclass(frozen=True)
class Bridge:
    """Monotone C1 radial profile: r - 4/3 low, 0 at 1/2, identity high."""

    eps: float
    arc1: tuple
    arc2: tuple

    @property
    def left_knot(self) -> float:
        return 1 / 3 + self.eps

    @property
    def right_knot(self) -> float:
        return 2 / 3 - self.eps

    def value(self, r):
        r = np.asarray(r, dtype=float)
        low = r - 4.0 / 3.0
        mid1 = _hermite_eval(self.arc1, r)
        mid2 = _hermite_eval(self.arc2, r)
        out = np.where(r <= self.left_knot, low,
                       np.where(r <= 0.5, mid1,
                                np.where(r <= self.right_knot, mid2, r)))
        return out

    def slope(self, r):
        r = np.asarray(r, dtype=float)
        mid1 = _hermite_deriv(self.arc1, r)
        mid2 = _hermite_deriv(self.arc2, r)
        return np.where(r <= self.left_knot, 1.0,
                        np.where(r <= 0.5, mid1,
                                 np.where(r <= self.right_knot, mid2, 1.0)))

    def slope_at_half(self) -> float:
        return float(_hermite_deriv(self.arc1, 0.5))


def make_bridge(eps: float) -> Bridge:
    """Two monotone cubic arcs joining the forced linear pieces with slope 1
    at 1/2; the derivative minimum of each arc is computed in closed form
    and must be positive."""
    if not 0 < eps < 1 / 6:
        raise SphereError("eps must lie in (0, 1/6)")
    lk, rk = 1 / 3 + eps, 2 / 3 - eps
    arc1 = _hermite(lk, 0.5, lk - 4 / 3, 0.0, 1.0, 1.0)
    arc2 = _hermite(0.5, rk, 0.0, rk, 1.0, 1.0)
    # for eps just below 1/6, rk rounds to 1/2 and the second arc has zero width
    if _hermite_deriv_min(arc1) <= 0 or rk <= 0.5 or _hermite_deriv_min(arc2) <= 0:
        raise SphereError("bridge arcs are not strictly increasing")
    return Bridge(eps, arc1, arc2)


def bridge_hat(bridge: Bridge, w: np.ndarray) -> np.ndarray:
    """Radial extension: w -> value(|w|) w / |w|."""
    r = _norm(w)
    return (bridge.value(r) / r)[..., None] * w


# ---------------------------------------------------------------------------
# the combing field


class _Prepared(NamedTuple):
    """The offset-independent part of the core at chart points of shape
    (..., n).  `inner` and `annulus` index the points of each region: `...`
    for all of them, a boolean mask for some, None for none."""

    # the core's output takes the points' memory layout (np.zeros_like),
    # and _norm's reduction order, hence its rounding, follows that layout
    points: np.ndarray
    inner: object
    annulus: object
    transitioned: Optional[np.ndarray]  # T(y) of the annulus points
    bridged: Optional[np.ndarray]  # B(y) = bridge_hat(y) of the annulus points


def _region(mask: np.ndarray):
    if mask.all():
        return ...
    return mask if mask.any() else None


def _prepare(y: Sequence[float], bridge: Bridge) -> _Prepared:
    """Check the chart points y and compute the core's offset-independent
    part at them once, for any number of offsets."""
    y = np.asarray(y, dtype=float)
    r = _norm(y)
    if (r >= 1).any():
        raise SphereError("chart points must have norm < 1")
    inner = r <= bridge.left_knot
    annulus = _region(~inner)
    if annulus is None:
        return _Prepared(y, ..., None, None, None)
    ya = y[annulus]
    return _Prepared(y, _region(inner), annulus,
                     _transition_unchecked(ya), bridge_hat(bridge, ya))


def comb_core(y: Union[Sequence[float], _Prepared], t: Union[float, np.ndarray],
              bridge: Bridge) -> np.ndarray:
    """Core map at chart points y of shape (..., n) for the offset t, a
    scalar or one per point: -t e1 in the inner region, the bridged
    transition of the shifted point on the annulus.  y may also be
    `_prepare(points, bridge)` with the same bridge, which evaluates several
    offsets at the same points without redoing the offset-independent
    part."""
    core = y if isinstance(y, _Prepared) else _prepare(y, bridge)
    per_point = np.ndim(t) > 0
    out = np.zeros_like(core.points)
    if core.inner is not None:
        out[core.inner, 0] = -(t[core.inner] if per_point else t)
    if core.annulus is not None:
        v = core.transitioned.copy()
        v[..., 0] += t[core.annulus] if per_point else t
        out[core.annulus] = bridge_hat(bridge, _transition_unchecked(v)) - core.bridged
    return out


def _core_slope(core: _Prepared, t: Union[float, np.ndarray],
                bridge: Bridge) -> np.ndarray:
    """Central difference quotient of the core in the offset at t."""
    return (comb_core(core, t + FD_STEP, bridge)
            - comb_core(core, t - FD_STEP, bridge)) / (2 * FD_STEP)


def _chart_point(y: Sequence[float], n: int) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.shape != (n,):
        raise SphereError("point dimension disagrees with n")
    return y


def comb_classical(y: Sequence[float], n: int, eps: float) -> np.ndarray:
    """Classical projection of the combing field: the derivative of the
    core at offset 0; the constant -e1 inside the inner region, where the
    core is -t e1 and its central difference is exactly -1."""
    br = make_bridge(eps)
    core = _prepare(_chart_point(y, n), br)
    return _core_slope(core, 0.0, br)


def comb_certificate(y: Sequence[float], n: int, eps: float) -> float:
    """Nonvanishing certificate: the largest central difference quotient of
    the core over sample offsets |t| <= CERT_RADIUS; strictly positive on
    the whole disc."""
    y = _chart_point(y, n)
    ts = np.linspace(-CERT_RADIUS, CERT_RADIUS, CERT_SAMPLES)
    br = make_bridge(eps)
    q = _core_slope(_prepare(np.broadcast_to(y, (CERT_SAMPLES, n)), br), ts, br)
    return float(np.max(_norm(q), initial=0.0))


def comb_grid(n: int, grid: int, eps: float) -> dict:
    """Vectorized sweep over a grid in the chart disc (n = 2 layout):
    classical projections, their norms, certificates, and the measured
    vanishing radius (radius of the grid point with the smallest
    projection norm)."""
    if n != 2:
        raise SphereError("the grid sweep is laid out for n = 2")
    if grid < 1:
        raise SphereError(f"grid must be >= 1, got {grid}")
    if grid > MAX_GRID:
        raise SphereError(f"grid must be <= {MAX_GRID}, got {grid}")
    br = make_bridge(eps)
    axis = np.linspace(-GRID_EXTENT, GRID_EXTENT, grid)
    xs, ys = np.meshgrid(axis, axis, indexing="ij")
    pts = np.stack([xs.ravel(), ys.ravel()], axis=-1)
    radii = _norm(pts)
    inside = radii < GRID_EXTENT
    pts, radii = pts[inside], radii[inside]
    if not len(pts):
        raise SphereError("no grid point lies inside the disc")

    core = _prepare(pts, br)
    proj = _core_slope(core, 0.0, br)
    projnorm = _norm(proj)

    # one offset per pass keeps peak memory at one batch of points; the
    # offset 0 is the projection itself
    cert = np.zeros(len(pts))
    for t in np.linspace(-CERT_RADIUS, CERT_RADIUS, GRID_CERT_SAMPLES):
        cert = np.maximum(cert, projnorm if t == 0 else _norm(_core_slope(core, t, br)))

    vanish_idx = int(np.argmin(projnorm))
    return {
        "points": pts,
        "projection": proj,
        "projection_norm": projnorm,
        "certificate": cert,
        "radii": radii,
        "vanishing_radius": float(radii[vanish_idx]),
        "min_certificate": float(np.min(cert)),
        "min_projection_norm": float(np.min(projnorm)),
    }


def grid_csv(data: dict) -> Iterator[str]:
    """A `comb_grid` sweep as CSV text, in chunks: a header, then one row
    per grid point (y1, y2, proj1, proj2, projnorm, certificate).  Each
    chunk is formatted from Python floats, so only one chunk of rows is
    alive at a time."""
    table = np.column_stack([data["points"], data["projection"],
                             data["projection_norm"], data["certificate"]])
    yield "y1,y2,proj1,proj2,projnorm,certificate\n"
    for start in range(0, len(table), _CSV_CHUNK):
        chunk = table[start:start + _CSV_CHUNK]
        yield (("%.6f,%.6f,%.6e,%.6e,%.6e,%.6e\n" * len(chunk))
               % tuple(chunk.ravel().tolist()))


# ---------------------------------------------------------------------------
# chart-transition differentials (exact layer)


def chart_differential(f: PolyFun, dv: PreDeriv,
                       base_point: Sequence) -> PreDeriv:
    """Fibre map of a polynomial chart transition at a base point:
    localize (translate so the point and its image go to 0), then push the
    pre-derivation forward."""
    point = [rat(c) for c in base_point]
    if len(point) != f.arity:
        raise SphereError("base point dimension differs from the transition arity")
    if not f.domain.contains(point):
        raise SphereError("base point must lie inside the transition domain")
    local_dom = f.domain.translate([-c for c in point])
    shifted = compose(f, trasl(point).restrict(local_dom))
    return pre_diff(vsum(shifted, const_fun(local_dom, [-c for c in eval_at(f, point)])), dv)
