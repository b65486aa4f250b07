"""Sphere combing: chart maps, the annulus transition, the monotone
bridge, and the combing field with its vanishing-locus diagnostics.

This is the one floating-point layer of the package (the chart maps are
transcendental).  Geometry tolerances are fixed at 1e-12 and derivative
sampling uses central differences with step 1e-5.  Chart-transition
differentials on polynomial transitions stay exact and delegate to the
pre-derivation module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .boxes import rat
from .polynomials import Poly, PolyFun
from .prederiv import PreDeriv, pre_diff

GEOM_TOL = 1e-12
FD_STEP = 1e-5


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


def make_bridge(eps: float, mid_slope: float = 1.0) -> Bridge:
    """Two monotone cubic arcs joining the forced linear pieces; the
    derivative minimum of each arc is computed in closed form and must be
    positive."""
    if not 0 < eps < 1 / 6:
        raise SphereError("eps must lie in (0, 1/6)")
    lk, rk = 1 / 3 + eps, 2 / 3 - eps
    arc1 = _hermite(lk, 0.5, lk - 4 / 3, 0.0, 1.0, mid_slope)
    arc2 = _hermite(0.5, rk, 0.0, rk, mid_slope, 1.0)
    if _hermite_deriv_min(arc1) <= 0 or _hermite_deriv_min(arc2) <= 0:
        raise SphereError("bridge arcs are not strictly increasing")  # pragma: no cover
    return Bridge(eps, arc1, arc2)


def bridge_hat(bridge: Bridge, w: np.ndarray) -> np.ndarray:
    """Radial extension: w -> value(|w|) w / |w|."""
    r = _norm(w)
    return (bridge.value(r) / r)[..., None] * w


# ---------------------------------------------------------------------------
# the combing field


def comb_core(y: Sequence[float], t: float, bridge: Bridge) -> np.ndarray:
    """Scalar-sample API for the core map at one chart point."""
    y = np.asarray(y, dtype=float)
    r = float(_norm(y))
    n = y.shape[0]
    if r >= 1:
        raise SphereError("chart points must have norm < 1")
    if r <= bridge.left_knot:
        out = np.zeros(n)
        out[0] = -t
        return out
    base = _transition_unchecked(y)
    v = base.copy()
    v[0] += t
    return bridge_hat(bridge, _transition_unchecked(v)) - bridge_hat(bridge, y)


def comb_classical(y: Sequence[float], n: int, eps: float, h: float = FD_STEP,
                   bridge: Optional[Bridge] = None) -> np.ndarray:
    """Classical projection of the combing field: central finite-difference
    derivative of the core at 0 in the first coordinate; the constant
    -e1 inside the inner region."""
    y = np.asarray(y, dtype=float)
    if y.shape[-1] != n:
        raise SphereError("point dimension disagrees with n")
    br = bridge if bridge is not None else make_bridge(eps)
    r = float(_norm(y))
    if r >= 1:
        raise SphereError("chart points must have norm < 1")
    if r <= br.left_knot:
        out = np.zeros(n)
        out[0] = -1.0
        return out
    return (comb_core(y, h, br) - comb_core(y, -h, br)) / (2 * h)


def comb_certificate(y: Sequence[float], n: int, eps: float,
                     bridge: Optional[Bridge] = None,
                     samples: int = 21, radius: float = 1e-3) -> float:
    """Nonvanishing certificate: the largest central difference quotient of
    the core over sample offsets |t| <= radius; strictly positive on the
    whole disc."""
    br = bridge if bridge is not None else make_bridge(eps)
    ts = np.linspace(-radius, radius, samples)
    h = FD_STEP
    best = 0.0
    for t in ts:
        qt = (comb_core(y, t + h, br) - comb_core(y, t - h, br)) / (2 * h)
        best = max(best, float(np.sqrt(np.sum(qt ** 2))))
    return best


def comb_grid(n: int, grid: int, eps: float, extent: float = 0.99,
              cert_samples: int = 9, cert_radius: float = 1e-3) -> dict:
    """Vectorized sweep over a grid in the chart disc (n = 2 layout):
    classical projections, their norms, certificates, and the measured
    vanishing radius (radius of the grid point with the smallest
    projection norm)."""
    if n != 2:
        raise SphereError("the grid sweep is laid out for n = 2")
    br = make_bridge(eps)
    axis = np.linspace(-extent, extent, grid)
    xs, ys = np.meshgrid(axis, axis, indexing="ij")
    pts = np.stack([xs.ravel(), ys.ravel()], axis=-1)
    inside = _norm(pts) < extent
    pts = pts[inside]
    if not len(pts):
        raise SphereError("no grid point lies inside the disc")

    h = FD_STEP
    proj = (_grid_core(pts, h, br) - _grid_core(pts, -h, br)) / (2 * h)
    projnorm = np.sqrt(np.sum(proj ** 2, axis=-1))

    ts = np.linspace(-cert_radius, cert_radius, cert_samples)
    cert = np.zeros(len(pts))
    for t in ts:
        qt = (_grid_core(pts, t + h, br) - _grid_core(pts, t - h, br)) / (2 * h)
        cert = np.maximum(cert, np.sqrt(np.sum(qt ** 2, axis=-1)))

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


def _grid_core(pts: np.ndarray, t: float, bridge: Bridge) -> np.ndarray:
    """Core map evaluated at one offset for a batch of chart points."""
    n = pts.shape[-1]
    r = _norm(pts)
    out = np.zeros_like(pts)
    inner = r <= bridge.left_knot
    out[inner, 0] = -t
    ann = ~inner
    if np.any(ann):
        ya = pts[ann]
        base = _transition_unchecked(ya)
        v = base.copy()
        v[:, 0] += t
        out[ann] = bridge_hat(bridge, _transition_unchecked(v)) - bridge_hat(bridge, ya)
    return out


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
