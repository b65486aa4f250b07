"""Sphere combing: chart maps, the annulus transition, the monotone
bridge, and the combing field with its vanishing-locus diagnostics.

This is the one floating-point layer of the package (the chart maps are
transcendental).  Derivatives of the combing core are central differences
with step 1e-5 in the offset t, taken through one batched core map that
serves a single point, a certificate's offsets and a grid sweep alike.
The core runs in two stages.  `_prepare` does once per point set the work
that does not depend on t: the radius check, the split into the inner
region and the annulus, and the transition T(y) and bridged point B(y) of
the annulus points, held as coordinate columns beside the bridge they were
prepared with.  Each offset then works on those columns alone: it shifts
T(y) by t e1, transitions and bridges the shifted point, and subtracts
B(y) (`comb_core`, which takes only a prepared point set and its offset);
the inner region's core -t e1 needs no evaluation.  `make_bridge` sets the
bridge's two knots once.  The bridge's slope is never evaluated:
`make_bridge` checks only each arc's least slope, in closed form, and the
tests keep the slope itself as an oracle.
The layer takes nothing from the exact kernel but its error base class;
the exact differential of a polynomial chart transition at a base point
is `prederiv.chart_differential`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Sequence, Union

import numpy as np

from .boxes import IdcalcError

FD_STEP = 1e-5
CERT_RADIUS = 1e-3  # certificate offsets t range over [-CERT_RADIUS, CERT_RADIUS]
CERT_SAMPLES = 21  # offsets per comb_certificate call
_CERT_OFFSETS = np.linspace(-CERT_RADIUS, CERT_RADIUS, CERT_SAMPLES)
GRID_CERT_SAMPLES = 9  # offsets per grid point in comb_grid
GRID_EXTENT = 0.99  # comb_grid samples the disc of this radius
# Largest comb_grid side.  The sweep is a display path whose time, memory
# and CSV size grow with the square of the side; 1000 resolves the disc 5x
# finer than the default of 200.  Measured for `comb-sphere --out` (Python
# 3.11, numpy 2.4, 2-core host): 0.26 s, 36 MB peak resident and a 2.2 MB
# CSV at 200; 2.0 s, 159 MB and 56 MB at 1000.
MAX_GRID = 1000
_CSV_CHUNK = 4096  # sweep rows formatted at a time


class SphereError(IdcalcError):
    pass


# ---------------------------------------------------------------------------
# chart maps


def _norm(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1] == 2:  # the same one addition per row, without a reduction
        return _col_norm((x[..., 0], x[..., 1]))
    return np.sqrt(np.sum(x ** 2, axis=-1))


def _col_norm(cols: Sequence[np.ndarray]) -> np.ndarray:
    """`_norm` of the points whose coordinates are the columns cols, bit for
    bit: for n != 2 it reduces the row-contiguous stack of the columns, the
    layout of every point block the core's norms were taken of."""
    if len(cols) == 2:
        a, b = cols
        return np.sqrt(a * a + b * b)
    return _norm(np.stack(cols, axis=-1))


def _sin_ratio(r: np.ndarray) -> np.ndarray:
    """sin(3 pi r / 4) / r with the removable singularity at r = 0."""
    a = 0.75 * math.pi
    return a * np.sinc(a * r / math.pi)


def map_north(x: Sequence[float]) -> np.ndarray:
    """Disc chart onto the upper cap; 0 goes to the north pole and radius
    2/3 lands on the equator."""
    x = np.asarray(x, dtype=float)
    r = _norm(x)
    if not (r < 1).all():
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
    if not ((r > 1 / 3) & (r < 1)).all():
        raise SphereError("transition needs 1/3 < |x| < 1")
    return np.stack(_transition_cols(np.moveaxis(x, -1, 0)), axis=-1)


def _transition_cols(cols: Sequence[np.ndarray]) -> list:
    """The transition on coordinate columns, unchecked."""
    r = _col_norm(cols)
    f = (4.0 / 3.0 - r) / r
    return [f * c for c in cols]


# ---------------------------------------------------------------------------
# the monotone bridge


def _hermite(a: float, b: float, va: float, vb: float):
    """Cubic Hermite coefficients on [a, b], slope 1 at both ends, in s=(r-a)/h."""
    h = b - a
    c0 = va
    c1 = h
    c2 = 3 * (vb - va) - 3 * h
    c3 = -2 * (vb - va) + 2 * h
    return c0, c1, c2, c3, a, h


def _hermite_eval(coeffs, r):
    c0, c1, c2, c3, a, h = coeffs
    s = (np.asarray(r, dtype=float) - a) / h
    return c0 + s * (c1 + s * (c2 + s * c3))


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
    """Monotone C1 radial profile: r - 4/3 up to left_knot, 0 at 1/2,
    identity from right_knot."""

    left_knot: float
    right_knot: float
    arc1: tuple
    arc2: tuple

    def value(self, r):
        """The profile at radii r, each arc evaluated only on the radii it
        governs."""
        r = np.asarray(r, dtype=float)
        out = np.where(r <= self.left_knot, r - 4.0 / 3.0, r)
        for arc, lo, hi in ((self.arc1, self.left_knot, 0.5), (self.arc2, 0.5, self.right_knot)):
            on = (lo < r) & (r <= hi)
            if np.count_nonzero(on):
                out[on] = _hermite_eval(arc, r[on])
        return out


def make_bridge(eps: float) -> Bridge:
    """Two monotone cubic arcs joining the forced linear pieces with slope 1
    at 1/2; the derivative minimum of each arc is computed in closed form
    and must be positive."""
    if not 0 < eps < 1 / 6:
        raise SphereError("eps must lie in (0, 1/6)")
    lk, rk = 1 / 3 + eps, 2 / 3 - eps
    arc1 = _hermite(lk, 0.5, lk - 4 / 3, 0.0)
    arc2 = _hermite(0.5, rk, 0.0, rk)
    # for eps just below 1/6, rk rounds to 1/2 and the second arc has zero width
    if _hermite_deriv_min(arc1) <= 0 or rk <= 0.5 or _hermite_deriv_min(arc2) <= 0:
        raise SphereError("bridge arcs are not strictly increasing")
    return Bridge(lk, rk, arc1, arc2)


def _bridge_cols(bridge: Bridge, cols: Sequence[np.ndarray]) -> list:
    """Radial extension on coordinate columns: w -> value(|w|) w / |w|."""
    r = _col_norm(cols)
    f = bridge.value(r) / r
    return [f * c for c in cols]


# ---------------------------------------------------------------------------
# the combing field


class _Prepared(NamedTuple):
    """The offset-independent part of the core at chart points of shape
    (..., n), with the bridge it was prepared with.  `inner` and `annulus`
    index the points of each region: `...` for all of them, a boolean mask
    for some, None for none.  The annulus points' T(y) and B(y) are held as
    n coordinate columns, so that every offset's work is a few passes over
    contiguous columns of the annulus block alone."""

    points: np.ndarray
    bridge: Bridge
    inner: object
    annulus: object
    transitioned: Optional[list]  # columns of T(y) at the annulus points
    bridged: Optional[list]  # columns of B(y), the bridge's radial extension at y


def _region(mask: np.ndarray):
    if mask.all():
        return ...
    return mask if mask.any() else None


def _prepare(y: Sequence[float], bridge: Bridge) -> _Prepared:
    """Check the chart points y and compute the core's offset-independent
    part at them once, for any number of offsets."""
    y = np.asarray(y, dtype=float)
    r = _norm(y)
    if not (r < 1).all():
        raise SphereError("chart points must have norm < 1")
    inner = r <= bridge.left_knot
    annulus = _region(~inner)
    if annulus is None:
        return _Prepared(y, bridge, ..., None, None, None)
    ya = y[annulus]
    cols = [ya[..., i] for i in range(y.shape[-1])]
    return _Prepared(y, bridge, _region(inner), annulus,
                     _transition_cols(cols), _bridge_cols(bridge, cols))


def comb_core(core: _Prepared, t: Union[float, np.ndarray]) -> list:
    """Core map at the annulus points of a prepared point set, for t a
    scalar or one offset per annulus point: the bridged transition of the
    shifted point T(y) + t e1, less B(y), as n coordinate columns.  The
    inner region's core, -t e1, is stated by `_core_slope`."""
    shifted = [core.transitioned[0] + t] + core.transitioned[1:]
    return [w - b for w, b in zip(_bridge_cols(core.bridge, _transition_cols(shifted)),
                                  core.bridged)]


def _core_slope(core: _Prepared, t: Union[float, np.ndarray]) -> list:
    """Central difference quotient of the core in the offset at t, as n
    coordinate columns over all the points.  t is a scalar or one offset per
    point; offsets come one per point only with a point set that lies wholly
    in one region, whose index is `...` or None, so t is read as given.  On
    the inner region the core is -t e1, so its quotient is formed from the
    two offsets alone."""
    if core.annulus is not None:
        block = [(p - m) / (2 * FD_STEP)
                 for p, m in zip(comb_core(core, t + FD_STEP), comb_core(core, t - FD_STEP))]
        if core.annulus is ...:
            return block
    cols = [np.zeros(core.points.shape[:-1]) for _ in range(core.points.shape[-1])]
    cols[0][core.inner] = ((-(t + FD_STEP)) - (-(t - FD_STEP))) / (2 * FD_STEP)
    if core.annulus is not None:
        for col, part in zip(cols, block):
            col[core.annulus] = part
    return cols


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
    return np.array(_core_slope(core, 0.0))  # one point: its n coordinates


def comb_certificate(y: Sequence[float], n: int, eps: float) -> float:
    """Nonvanishing certificate: the largest central difference quotient of
    the core over sample offsets |t| <= CERT_RADIUS; strictly positive on
    the whole disc."""
    y = _chart_point(y, n)
    br = make_bridge(eps)
    q = _core_slope(_prepare(np.broadcast_to(y, (CERT_SAMPLES, n)), br), _CERT_OFFSETS)
    # the squares are summed in coordinate order, not pairwise: for n >= 8
    # the two round differently, and the certificate pins hold this order
    return float(np.max(np.sqrt(sum(c * c for c in q)), initial=0.0))


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
    proj = _core_slope(core, 0.0)
    projnorm = _col_norm(proj)

    # one offset per pass keeps peak memory at one batch of points; the
    # offset 0 is the projection itself
    cert = np.zeros(len(pts))
    for t in np.linspace(-CERT_RADIUS, CERT_RADIUS, GRID_CERT_SAMPLES):
        cert = np.maximum(cert, projnorm if t == 0 else _col_norm(_core_slope(core, t)))

    vanish_idx = int(np.argmin(projnorm))
    return {
        "points": pts,
        "projection": np.stack(proj, axis=-1),
        "projection_norm": projnorm,
        "certificate": cert,
        "radii": radii,
        "vanishing_radius": float(radii[vanish_idx]),
        "min_certificate": float(np.min(cert)),
        "min_projection_norm": float(np.min(projnorm)),
    }


def grid_csv(data: dict) -> Iterator[str]:
    """A `comb_grid` sweep as CSV text, in chunks: a header, then one row
    per grid point (y1, y2, proj1, proj2, projnorm, certificate) formatted
    as `_CSV_ROW`.  Only one chunk of rows is formatted at a time."""
    table = np.column_stack([data["points"], data["projection"],
                             data["projection_norm"], data["certificate"]])
    yield "y1,y2,proj1,proj2,projnorm,certificate\n"
    for start in range(0, len(table), _CSV_CHUNK):
        yield _csv_rows(table[start:start + _CSV_CHUNK])


# ---------------------------------------------------------------------------
# CSV digits from integers
#
# A row is written into 76 byte slots: a sign slot and 8 characters per
# %.6f field, a sign slot and 13 characters per %.6e field, each field
# followed by its comma or newline; an empty sign slot holds the pad byte 0,
# which is dropped.  The 7 significant digits of a value are the nearest
# integer m to its scaled magnitude s = |v| 10^k, with 10^k an exact power
# of ten (|k| <= 22), so s carries one rounding, at most 2^-53 s < 2e-9
# away.  Unless s lies within _TIE of a half-integer, m is then the integer
# that correct rounding of |v| 10^k gives, and the digits are those of `%`.
# A row holding such a near tie, a non-finite value, a %.6f value of
# magnitude 9 or more, or a %.6e exponent the exact powers cannot reach is
# formatted by `%` itself.

_CSV_ROW = "%.6f,%.6f,%.6e,%.6e,%.6e,%.6e\n"
_TIE = 1e-6
_EXP_LO, _EXP_HI = -16, 28  # the exponents e whose scale 10^(6 - e) is exact
_UP = np.array([float(10 ** max(6 - e, 0)) for e in range(_EXP_LO, _EXP_HI + 1)])
_DOWN = np.array([float(10 ** max(e - 6, 0)) for e in range(_EXP_LO, _EXP_HI + 1)])
_SLOTS = np.frombuffer(b"\0_.______," * 2 + b"\0_.______e+__," * 3 + b"\0_.______e+__\n",
                       dtype=np.uint8)


def _scaled(a: np.ndarray, e: np.ndarray) -> np.ndarray:
    """a 10^(6 - e) with one rounding (one factor is 1), e clipped to
    [_EXP_LO, _EXP_HI]."""
    i = np.clip(e, _EXP_LO, _EXP_HI) - _EXP_LO
    return a * _UP[i] / _DOWN[i]


def _near_tie(s: np.ndarray) -> np.ndarray:
    return np.abs(s - np.floor(s) - 0.5) < _TIE


def _mantissa(slots: np.ndarray, v: np.ndarray, m: np.ndarray) -> None:
    """The sign of v and the digits d.dddddd of m (a 7-digit integer held
    as a float) into slots 0, 1 and 3-8."""
    slots[..., 0] = np.where(np.signbit(v), 45, 0)
    m = m.astype(np.int32)
    for slot in (8, 7, 6, 5, 4, 3, 1):
        rest = m // 10
        slots[..., slot] = m - 10 * rest + 48
        m = rest


def _fixed_fields(slots: np.ndarray, v: np.ndarray) -> np.ndarray:
    """%.6f of v into slots (..., 9); True where `%` must format instead."""
    a = np.abs(v)
    ok = a < 9
    s = np.where(ok, a, 0.0) * 1e6
    _mantissa(slots, v, np.rint(s))
    return ~ok | _near_tie(s)


def _exp_fields(slots: np.ndarray, v: np.ndarray) -> np.ndarray:
    """%.6e of v into slots (..., 13); True where `%` must format instead."""
    a = np.abs(v)
    live = np.isfinite(a) & (a > 0)  # zero is m = 0, e = 0
    a = np.where(live, a, 0.0)
    e = np.floor(np.log10(np.where(live, a, 1.0))).astype(np.int64)
    s = _scaled(a, e)
    m = np.rint(s)
    # a log10 that missed the decade leaves m outside [1e6, 1e7]
    bad = (~np.isfinite(v) | _near_tie(s) | (e < _EXP_LO) | (e > _EXP_HI)
           | (live & ((m < 1e6) | (m > 1e7))))
    roll = m == 1e7  # 9.9999995 rounds up into the next decade
    e += roll
    # a bad value's digits are never shown; 0 keeps its integer cast defined
    m = np.where(bad, 0.0, np.where(roll, 1e6, m))
    _mantissa(slots, v, m)
    slots[..., 10] = np.where(e < 0, 45, 43)
    slots[..., 11] = np.abs(e) // 10 + 48
    slots[..., 12] = np.abs(e) % 10 + 48
    return bad


def _csv_rows(table: np.ndarray) -> str:
    """Rows of (y1, y2, proj1, proj2, projnorm, certificate) as `_CSV_ROW`
    text, byte for byte."""
    slots = np.tile(_SLOTS, (len(table), 1))
    bad = (_fixed_fields(slots[:, :20].reshape(-1, 2, 10), table[:, :2]).any(axis=1)
           | _exp_fields(slots[:, 20:].reshape(-1, 4, 14), table[:, 2:]).any(axis=1))
    pieces, start = [], 0
    for i in np.flatnonzero(bad).tolist():
        pieces += [_slot_text(slots[start:i]), _CSV_ROW % tuple(table[i].tolist())]
        start = i + 1
    pieces.append(_slot_text(slots[start:]))
    return "".join(pieces)


def _slot_text(slots: np.ndarray) -> str:
    return slots[slots != 0].tobytes().decode("ascii")
