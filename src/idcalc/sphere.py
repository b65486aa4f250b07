"""Sphere combing: chart maps, the annulus transition, the monotone
bridge, and the combing field with its vanishing-locus diagnostics.

This is the one floating-point layer of the package (the chart maps are
transcendental).  Derivatives of the combing core are central differences
with step 1e-5, taken through one batched core map that serves a single
point, a certificate's offsets and a grid sweep alike.  Chart-transition
differentials on polynomial transitions stay exact and delegate to the
pre-derivation module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .boxes import rat
from .polynomials import Poly, PolyFun
from .prederiv import PreDeriv, pre_diff

FD_STEP = 1e-5
CERT_RADIUS = 1e-3  # certificate offsets t range over [-CERT_RADIUS, CERT_RADIUS]
CERT_SAMPLES = 21  # offsets per comb_certificate call
GRID_CERT_SAMPLES = 9  # offsets per grid point in comb_grid
GRID_EXTENT = 0.99  # comb_grid samples the disc of this radius


class SphereError(ValueError):
    pass


# ---------------------------------------------------------------------------
# chart maps


def _norm(x: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(np.asarray(x, dtype=float) ** 2, axis=-1))


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
    return ((4.0 / 3.0 - r) / r)[..., None] * x


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
    if _hermite_deriv_min(arc1) <= 0 or _hermite_deriv_min(arc2) <= 0:
        raise SphereError("bridge arcs are not strictly increasing")  # pragma: no cover
    return Bridge(eps, arc1, arc2)


def bridge_hat(bridge: Bridge, w: np.ndarray) -> np.ndarray:
    """Radial extension: w -> value(|w|) w / |w|."""
    r = _norm(w)
    return (bridge.value(r) / r)[..., None] * w


# ---------------------------------------------------------------------------
# the combing field


def comb_core(y: Sequence[float], t: Union[float, np.ndarray],
              bridge: Bridge) -> np.ndarray:
    """Core map at chart points y of shape (..., n) for the offset t, a
    scalar or one per point: -t e1 in the inner region, the bridged
    transition of the shifted point on the annulus."""
    y = np.asarray(y, dtype=float)
    r = _norm(y)
    if (r >= 1).any():
        raise SphereError("chart points must have norm < 1")
    per_point = np.ndim(t) > 0
    out = np.zeros_like(y)
    inner = r <= bridge.left_knot
    out[inner, 0] = -(t[inner] if per_point else t)
    ann = ~inner
    if ann.any():
        ya = y[ann]
        v = _transition_unchecked(ya)
        v[..., 0] += t[ann] if per_point else t
        out[ann] = bridge_hat(bridge, _transition_unchecked(v)) - bridge_hat(bridge, ya)
    return out


def _core_slope(y: np.ndarray, t: Union[float, np.ndarray],
                bridge: Bridge) -> np.ndarray:
    """Central difference quotient of the core in the offset at t."""
    return (comb_core(y, t + FD_STEP, bridge) - comb_core(y, t - FD_STEP, bridge)) / (2 * FD_STEP)


def _chart_point(y: Sequence[float], n: int) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.shape != (n,):
        raise SphereError("point dimension disagrees with n")
    return y


def comb_classical(y: Sequence[float], n: int, eps: float) -> np.ndarray:
    """Classical projection of the combing field: the derivative of the
    core at offset 0; the constant -e1 inside the inner region."""
    return _core_slope(_chart_point(y, n), 0.0, make_bridge(eps))


def comb_certificate(y: Sequence[float], n: int, eps: float) -> float:
    """Nonvanishing certificate: the largest central difference quotient of
    the core over sample offsets |t| <= CERT_RADIUS; strictly positive on
    the whole disc."""
    y = _chart_point(y, n)
    ts = np.linspace(-CERT_RADIUS, CERT_RADIUS, CERT_SAMPLES)
    q = _core_slope(np.broadcast_to(y, (CERT_SAMPLES, n)), ts, make_bridge(eps))
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
    br = make_bridge(eps)
    axis = np.linspace(-GRID_EXTENT, GRID_EXTENT, grid)
    xs, ys = np.meshgrid(axis, axis, indexing="ij")
    pts = np.stack([xs.ravel(), ys.ravel()], axis=-1)
    inside = _norm(pts) < GRID_EXTENT
    pts = pts[inside]
    if not len(pts):
        raise SphereError("no grid point lies inside the disc")

    proj = _core_slope(pts, 0.0, br)
    projnorm = _norm(proj)

    # one offset per pass keeps peak memory at one batch of points
    cert = np.zeros(len(pts))
    for t in np.linspace(-CERT_RADIUS, CERT_RADIUS, GRID_CERT_SAMPLES):
        cert = np.maximum(cert, _norm(_core_slope(pts, t, br)))

    radii = _norm(pts)
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
    m = f.arity
    shifted_args = [Poly.var(m, j).add(Poly.const(m, point[j - 1]))
                    for j in range(1, m + 1)]
    value = [p.eval(point) for p in f.components]
    comps = [pp.subst(shifted_args).sub(Poly.const(m, value[idx]))
             for idx, pp in enumerate(f.components)]
    local_dom = f.domain.translate([-c for c in point])
    localized = PolyFun.make(local_dom, comps)
    return pre_diff(localized, dv)
