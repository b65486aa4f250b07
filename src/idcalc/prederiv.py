"""Pre-derivations on pointed polynomial cores.

A pre-derivation is a finite formal sum of (core, direction) pairs, where
a core is a polynomial function z with 0 in its domain and z(0) = 0, and
the direction is a rational vector matching the core's arity.  Applied to
a scalar function w it produces the germ sum_l u_l d/dx_l (w o z), summed
in one walk over the terms of w o z; the formal summands are then grouped
by core arity.

Smooth evaluation sends a pre-derivation to the classical tangent vector
Jac(z, 0) u, the vanishing space of a core collects the directions whose
directional derivative germ is identically zero, and the canonical
direction removes the vanishing part by exact orthogonal projection.  A
core computes its vanishing space once, on first use, and keeps it.  The
matrix of that space and ``apply``'s derivative read the same walk over a
polynomial's terms (``_partial_terms``).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Sequence

from .boxes import Box, Cursor, IdcalcError, Ray1, rat
from .polynomials import (CompositionGuardError, Key, Poly, PolyFun, RatLike, _canonical,
                          _centred_fits, _substitute, format_polyfun, format_rat, range_fits,
                          read_polyfun, smint, vsum)


class PreDerivError(IdcalcError):
    pass


# ---------------------------------------------------------------------------
# exact linear algebra over the rationals


def rref(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Reduced row echelon form without its zero rows.  Each row is scaled
    to integers and eliminated fraction-free, kept primitive by its gcd
    (after Bareiss, 1968); Fractions are formed only for the pivot rows."""
    mat = []
    for row in rows:
        den = math.lcm(*(v.denominator for v in row))
        mat.append([v.numerator * (den // v.denominator) for v in row])
    pivots: list[int] = []
    for col in range(len(mat[0]) if mat else 0):
        lead = len(pivots)
        piv = next((r for r in range(lead, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[lead], mat[piv] = mat[piv], mat[lead]
        p, prow = mat[lead][col], mat[lead]
        for r, row in enumerate(mat):
            c = row[col]
            if r != lead and c:
                new = [p * a - c * b for a, b in zip(row, prow)]
                g = math.gcd(*new)
                mat[r] = [v // g for v in new] if g else new
        pivots.append(col)
    return [[Fraction(v, row[pc]) for v in row] for row, pc in zip(mat, pivots)]


def kernel_basis(rows: list[list[Fraction]], ncols: int) -> list[tuple[Fraction, ...]]:
    """Basis of the null space of the matrix, in reduced echelon form."""
    red = rref(rows)
    pivots = []
    for r in red:
        pivots.append(next(c for c, v in enumerate(r) if v != 0))
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, pc in zip(red, pivots):
            v[pc] = -r[f]
        basis.append(tuple(v))
    return basis


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    """The exact dot product: integer numerators summed over a running
    common denominator, reduced once, in the one Fraction it returns."""
    num, den = 0, 1
    for a, b in zip(u, v):
        q = a.denominator * b.denominator
        if q == den:
            num += a.numerator * b.numerator
        else:
            common = math.lcm(den, q)
            num = num * (common // den) + a.numerator * b.numerator * (common // q)
            den = common
    return Fraction(num, den)


def project_onto_span(u: Sequence[Fraction],
                      basis: Sequence[Sequence[Fraction]]) -> tuple[Fraction, ...]:
    """Euclidean orthogonal projection of u onto span(basis), exactly."""
    if not basis:
        return tuple(Fraction(0) for _ in u)
    # a basis has a nonsingular Gram matrix: [Gram | B^T u] reduces to [I | coefficients]
    coeffs = [row[-1] for row in rref([[dot(a, b) for b in basis] + [dot(a, u)]
                                       for a in basis])]
    out = [Fraction(0)] * len(u)
    for c, b in zip(coeffs, basis):
        for idx, val in enumerate(b):
            out[idx] += c * val
    return tuple(out)


# ---------------------------------------------------------------------------
# cores and pre-derivations


def _partial_terms(p: Poly) -> Iterator[tuple[int, Key, Fraction]]:
    """(j, k - e_j, c k_j) for each term c x^k of p and each j with k_j > 0:
    the terms of d/dx_j p, with j counted from 0."""
    for k, c in p.terms:
        for j, e in enumerate(k):
            if e:
                yield j, k[:j] + (e - 1,) + k[j + 1:], c * e


@dataclass(frozen=True)
class GermCore:
    """Pointed polynomial core: 0 in the domain and value 0 at 0.  Its
    vanishing space is computed on first use and kept on the core;
    equality and the hash read ``fn`` alone."""

    fn: PolyFun

    def __post_init__(self) -> None:
        if not self.fn.domain.contains([0] * self.fn.arity):
            raise PreDerivError("core domain must contain 0")
        if any(p.at_zero() for p in self.fn.components):
            raise PreDerivError("core must vanish at 0")

    @property
    def source_dim(self) -> int:
        return self.fn.arity

    @property
    def target_dim(self) -> int:
        return self.fn.cod_dim

    @cached_property
    def _vanishing_basis(self) -> tuple[tuple[Fraction, ...], ...]:
        """What ``vanishing_space`` returns, computed once."""
        l = self.source_dim
        rows: dict[tuple[int, Key], list[Fraction]] = {}
        for comp, p in enumerate(self.fn.components):
            for j, key, d in _partial_terms(p):
                rows.setdefault((comp, key), [Fraction(0)] * l)[j] = d
        return tuple(kernel_basis(list(rows.values()), l))


Summand = tuple[GermCore, tuple[Fraction, ...]]


@dataclass(frozen=True)
class PreDeriv:
    """Formal sum of (core, direction) pairs with a shared target
    dimension; the empty sum is the zero pre-derivation."""

    target_dim: int
    summands: tuple[Summand, ...] = ()

    def __post_init__(self) -> None:
        for core, u in self.summands:
            if core.target_dim != self.target_dim:
                raise PreDerivError("summands disagree on the target dimension")
            if len(u) != core.source_dim:
                raise PreDerivError("direction length differs from the core arity")

    @staticmethod
    def of(core: GermCore, direction: Sequence[RatLike]) -> "PreDeriv":
        u = tuple(rat(c) for c in direction)
        return PreDeriv(core.target_dim, ((core, u),))

    @staticmethod
    def zero(target_dim: int) -> "PreDeriv":
        return PreDeriv(target_dim)

    def __add__(self, other: "PreDeriv") -> "PreDeriv":
        if self.target_dim != other.target_dim:
            raise PreDerivError("target dimensions differ")
        return PreDeriv(self.target_dim, self.summands + other.summands)


def identity_core(m: int) -> GermCore:
    return GermCore(PolyFun.identity(Box.cube(-1, 1, m)))


# ---------------------------------------------------------------------------
# germ-level composition


_LAST_K = 298  # the guard tests no radius 2^-k below 2^-_LAST_K


def _shrink_around_zero(b: Box, k: int) -> Box:
    """b's intersection with the cap (-2^-k, 2^-k)^l: the cap itself once
    it lies inside b."""
    r = Fraction(1, 2 ** k)
    ray = Ray1(-r, r)
    cap = Box((ray,) * b.dim)
    if all((d.lo is None or d.lo <= ray.lo) and (d.hi is None or r <= d.hi) for d in b.factors):
        return cap
    out = b.intersect(cap)
    assert out is not None  # both contain 0
    return out


def compose_germ(f: PolyFun, z: PolyFun) -> PolyFun:
    """f o z near 0: on z's domain if the range guard certifies it there,
    else on the domain's intersection with (-2^-k, 2^-k)^l for the least
    certified k <= _LAST_K.  Each such box is tested while the cap sticks
    out of the domain; once it lies inside, each component's closed form
    (``_centred_fits``) at r = 2^-k moves k on until that component fits,
    and a component with z(0) on or outside its target ray is refused at
    once."""
    if z.cod_dim != f.arity:
        raise PreDerivError(f"composition dimension mismatch: {z.cod_dim} -> {f.arity}")
    # the domain's finite ends, taken as -lo or hi: it contains 0 iff all are
    # positive, and the cap lies inside it from the least k with 2^-k <= each
    ends = [e for d in z.domain.factors
            for e in (None if d.lo is None else -d.lo, d.hi) if e is not None]
    if any(e <= 0 for e in ends):
        raise PreDerivError("inner domain must contain 0")
    if range_fits(z, f.domain):
        return _substitute(f, z, uncertified=False)
    k = 1
    inside = max((((e.denominator - 1) // e.numerator).bit_length() for e in ends), default=0)
    while k < min(inside, _LAST_K + 1):
        cur = z.restrict(_shrink_around_zero(z.domain, k))
        if range_fits(cur, f.domain):
            return _substitute(f, cur, uncertified=False)
        k += 1
    for p, ray in zip(z.components, f.domain.factors):
        if not ray.is_full:
            if not ray.contains(p.at_zero()):  # margin m <= 0: no k certifies
                k = _LAST_K + 1
                break
            fits = _centred_fits(p, ray, (1,) * z.arity)
            while k <= _LAST_K and not fits(2 ** k):
                k += 1
    if k > _LAST_K:
        raise CompositionGuardError("no neighbourhood of 0 certified the composition")
    return _substitute(f, z.restrict(_shrink_around_zero(z.domain, k)), uncertified=False)


# ---------------------------------------------------------------------------
# the operations


def apply(dv: PreDeriv, w: PolyFun) -> list[PolyFun]:
    """Evaluate the pre-derivation on a scalar function: per summand the
    germ sum_l u_l d/dx_l (w o z), summed in one walk over the terms of
    w o z; summands with equal source arity are combined on a common
    sub-box, others stay as a formal list.  A germ is partial when w o z
    is and u is not 0."""
    if w.cod_dim != 1:
        raise PreDerivError("pre-derivations apply to scalar functions")
    if w.arity != dv.target_dim:
        raise PreDerivError("function arity differs from the target dimension")
    zero = [Fraction(0)] * dv.target_dim
    if not w.domain.contains(zero):
        raise PreDerivError("function domain must contain 0")
    grouped: dict[int, PolyFun] = {}
    for core, u in dv.summands:
        l = core.source_dim
        wz = compose_germ(w, core.fn)
        terms: dict[Key, Fraction] = {}
        for j, key, d in _partial_terms(wz.components[0]):
            if u[j]:
                terms[key] = terms[key] + u[j] * d if key in terms else u[j] * d
        acc = PolyFun(wz.domain, (_canonical(l, terms),), wz.is_partial and any(u))
        if l in grouped:
            prev = grouped[l]
            common = prev.domain.intersect(acc.domain)
            assert common is not None
            grouped[l] = vsum(prev.restrict(common), acc.restrict(common))
        else:
            grouped[l] = acc
    return list(grouped.values())


def eval_smooth(dv: PreDeriv) -> tuple[Fraction, ...]:
    """The classical tangent vector: sum of Jac(z, 0) u over summands."""
    zero_out = [Fraction(0)] * dv.target_dim
    for core, u in dv.summands:
        jac = jacobian_at_zero(core.fn)
        for r in range(dv.target_dim):
            zero_out[r] += dot(jac[r], u)
    return tuple(zero_out)


def jacobian_at_zero(f: PolyFun) -> list[list[Fraction]]:
    """Jac(f, 0): entry (i, j) is the coefficient of x_j in component i."""
    rows = []
    for p in f.components:
        row = [Fraction(0)] * f.arity
        for k, c in p.terms:
            deg = sum(k)
            if deg > 1:  # graded order: the linear terms come first
                break
            if deg:
                row[k.index(1)] = c
        rows.append(row)
    return rows


def pre_diff(f: PolyFun, dv: PreDeriv) -> PreDeriv:
    """Push the pre-derivation forward along a pointed function: cores
    become f o z, directions are unchanged."""
    if not f.domain.contains([0] * f.arity) or any(p.at_zero() for p in f.components):
        raise PreDerivError("the transported function must be pointed at 0")
    if f.arity != dv.target_dim:
        raise PreDerivError("function arity differs from the target dimension")
    new = tuple((GermCore(compose_germ(f, core.fn)), u) for core, u in dv.summands)
    return PreDeriv(f.cod_dim, new)


def chain_check(f: PolyFun, dv: PreDeriv) -> bool:
    """Jac(f,0) . eval_smooth(dv) == eval_smooth(pre_diff(f, dv)), exactly."""
    lhs_vec = eval_smooth(dv)
    jac = jacobian_at_zero(f)
    lhs = tuple(dot(row, lhs_vec) for row in jac)
    rhs = eval_smooth(pre_diff(f, dv))
    return lhs == rhs


def vanishing_space(z: GermCore) -> list[tuple[Fraction, ...]]:
    """Basis (reduced echelon form) of the directions u with
    sum_l u_l d/dx_l z identically zero: the kernel of the matrix of that
    derivation, in which a term c x^k of a component puts c k_j in column j
    of the row (component, k - e_j).  The core computes it on first use and
    keeps it (``GermCore._vanishing_basis``); each call returns a new list."""
    return list(z._vanishing_basis)


def canonical_direction(z: GermCore, u: Sequence[RatLike]) -> tuple[Fraction, ...]:
    """Remove the vanishing part: u minus its orthogonal projection onto
    the span of the vanishing space."""
    uu = [rat(c) for c in u]
    if len(uu) != z.source_dim:
        raise PreDerivError("direction length differs from the core arity")
    proj = project_onto_span(uu, vanishing_space(z))
    return tuple(a - b for a, b in zip(uu, proj))


def smooth_kernel_test(dv: PreDeriv) -> bool:
    """Kernel membership for the smooth-evaluation map."""
    return all(c == 0 for c in eval_smooth(dv))


def nontriviality_witness(l: int, ell: int, u: Sequence[RatLike]) -> PolyFun:
    """Iterated integral of the directional derivative of the map
    x -> x_ell; it is the scalar closed product
    u_ell * prod_i (x_{2i} - x_{2i-1})."""
    if not 1 <= ell <= l:
        raise PreDerivError("component index out of range")
    uu = [rat(c) for c in u]
    if len(uu) != l:
        raise PreDerivError("direction length must be l")
    cur = PolyFun.make(Box.full(l), [Poly.const(l, uu[ell - 1])])
    for j in range(l, 0, -1):
        cur = smint(cur, j)
    return cur


# ---------------------------------------------------------------------------
# text form: `D{ core=<polyfun>; u=(...); } + ...`


def format_prederiv(dv: PreDeriv) -> str:
    if not dv.summands:
        return f"0[m={dv.target_dim}]"
    parts = []
    for core, u in dv.summands:
        vec = ", ".join(format_rat(c) for c in u)
        parts.append(f"D{{ core={format_polyfun(core.fn)}; u=({vec}); }}")
    return " + ".join(parts)


_ZERO, _ENTRY = re.compile(r"0\[m=([0-9]+)\]"), re.compile(r"[^\s,()]*")
_SYNTAX = "bad pre-derivation syntax"


def _read_summand(cur: Cursor) -> Summand:
    """`D{ core=<polyfun>; u=(...); }`"""
    cur.expect("D{", _SYNTAX)
    cur.expect("core=", _SYNTAX)
    core = cur.build(cur.pos, GermCore, read_polyfun(cur))
    cur.expect(";", _SYNTAX)
    cur.expect("u=(", _SYNTAX)
    u = []
    while not cur.eat(")"):
        if u:
            cur.expect(",", _SYNTAX)
        entry = cur.take(_ENTRY)
        u.append(cur.build(entry.start(), rat, entry[0]))
    cur.expect(";", _SYNTAX)
    cur.expect("}", _SYNTAX)
    return core, tuple(u)


def parse_prederiv(text: str) -> PreDeriv:
    cur = Cursor(text, "pre-derivation text", PreDerivError)
    zero = cur.take(_ZERO)
    if zero:
        m = cur.index(zero[1], zero.start(1), "dimension")
        if cur.pos == len(text):
            return PreDeriv.zero(m)
        raise cur.fail(_SYNTAX, cur.pos)
    if cur.pos == len(text):
        raise cur.fail("empty pre-derivation text", cur.pos)
    summands: list[Summand] = []
    while True:
        at = cur.pos
        summands.append(_read_summand(cur))
        # each summand's direction and target dimension, checked where it starts
        cur.build(at, PreDeriv, summands[0][0].target_dim, (summands[-1],))
        if cur.pos == len(text):
            return PreDeriv(summands[0][0].target_dim, tuple(summands))
        cur.expect("+", "expected '+' between summands")
