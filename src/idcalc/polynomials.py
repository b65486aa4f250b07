"""Exact vector-valued multivariate polynomials on boxes.

``Poly`` is a scalar polynomial over rationals with a fixed arity;
``PolyFun`` bundles a box domain with a tuple of components and carries
the whole calculus: evaluation, partial derivatives, the one-variable
definite integral with domain extension (``smint``), composition with a
sound range guard (exact on affine components), tupling, the
vector-space/product operations, the named primitive functions, and the
action of the operator generators.

Everything is exact; no floats enter this module.
"""

from __future__ import annotations

import enum
import math
import operator
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence

from .boxes import (Box, Cursor, Enclosure, IdcalcError, RatLike, Ray1, domint, product, rat,
                    read_box)

Key = tuple[int, ...]


class PolyError(IdcalcError):
    pass


class CompositionGuardError(PolyError):
    """The range guard cannot certify that the inner function maps into
    the target domain."""


class DomainMismatchError(PolyError):
    pass


# ---------------------------------------------------------------------------
# scalar polynomials


def _mul_terms(a: Mapping[Key, Fraction | int],
               b: Mapping[Key, Fraction | int]) -> dict[Key, Fraction | int]:
    """Product of two term dicts, not yet canonical: ``_canonical`` drops
    the zero coefficients and sorts.  Coefficients are Fractions or, in
    ``Poly.subst``, integer numerators."""
    out: dict[Key, Fraction | int] = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = tuple(map(operator.add, k1, k2))
            out[k] = out[k] + c1 * c2 if k in out else c1 * c2
    return out


def _canonical(arity: int, terms: Mapping[Key, Fraction]) -> "Poly":
    """The Poly of a term dict whose keys are exponent tuples of length
    ``arity`` and whose values are Fractions: zero terms dropped, the rest
    sorted.  The kernel's own operations build such dicts; input from
    elsewhere goes through ``Poly.make``, which checks it first."""
    return Poly(arity, tuple(sorted([kc for kc in terms.items() if kc[1]],
                                    key=lambda kc: (sum(kc[0]), kc[0]))))


@dataclass(frozen=True)
class Poly:
    """Multivariate polynomial; ``terms`` maps exponent tuples to nonzero
    coefficients.  Keys all have length ``arity``."""

    arity: int
    terms: tuple[tuple[Key, Fraction], ...]  # canonical graded-lex order

    # -- construction -------------------------------------------------------

    @staticmethod
    def make(arity: int, terms: Mapping[Key, RatLike]) -> "Poly":
        """The Poly of a term dict from outside the kernel: keys are checked
        for length and sign, coefficients parsed with ``rat``."""
        clean: dict[Key, Fraction] = {}
        for k, c in terms.items():
            c = rat(c)
            if len(k) != arity:
                raise PolyError(f"exponent tuple {k} in arity-{arity} polynomial")
            if any(e < 0 for e in k):
                raise PolyError(f"negative exponent in {k}")
            if c:
                k = tuple(k)
                clean[k] = clean[k] + c if k in clean else c
        return _canonical(arity, clean)

    @staticmethod
    def zero(arity: int) -> "Poly":
        return Poly(arity, ())

    @staticmethod
    def const(arity: int, c: RatLike) -> "Poly":
        return Poly.make(arity, {(0,) * arity: rat(c)})

    @staticmethod
    def var(arity: int, i: int) -> "Poly":
        """The coordinate x_i (1-based)."""
        if not 1 <= i <= arity:
            raise PolyError(f"variable index {i} out of range for arity {arity}")
        k = tuple(1 if j == i - 1 else 0 for j in range(arity))
        return Poly(arity, ((k, Fraction(1)),))

    # -- ring operations -----------------------------------------------------

    def add(self, other: "Poly") -> "Poly":
        if self.arity != other.arity:
            raise PolyError("arity mismatch in +")
        out = dict(self.terms)
        for k, c in other.terms:
            out[k] = out[k] + c if k in out else c
        return _canonical(self.arity, out)

    def neg(self) -> "Poly":
        return Poly(self.arity, tuple((k, -c) for k, c in self.terms))

    def sub(self, other: "Poly") -> "Poly":
        return self.add(other.neg())

    def mul(self, other: "Poly") -> "Poly":
        if self.arity != other.arity:
            raise PolyError("arity mismatch in *")
        return _canonical(self.arity, _mul_terms(dict(self.terms), dict(other.terms)))

    # -- calculus ------------------------------------------------------------

    def eval(self, xs: Sequence[RatLike]) -> Fraction:
        """The value at the point xs: the substitution of its constants."""
        if len(xs) != self.arity:
            raise PolyError("evaluation point length mismatch")
        return self.subst([Poly.const(0, x) for x in xs]).at_zero()

    def at_zero(self) -> Fraction:
        """The value at 0: the constant term."""
        return _constant_split(self)[0]

    def partial(self, i: int) -> "Poly":
        """d/dx_i (1-based); zero if i exceeds the arity."""
        if i < 1:
            raise PolyError("partial index must be >= 1")
        if i > self.arity:
            return Poly.zero(self.arity)
        out: dict[Key, Fraction] = {}
        for k, c in self.terms:
            e = k[i - 1]
            if e == 0:
                continue
            nk = k[: i - 1] + (e - 1,) + k[i:]
            out[nk] = out[nk] + c * e if nk in out else c * e
        return _canonical(self.arity, out)

    def antideriv(self, i: int) -> "Poly":
        """An antiderivative with respect to x_i (no constant term in x_i)."""
        if not 1 <= i <= self.arity:
            raise PolyError(f"antideriv index {i} out of range for arity {self.arity}")
        out: dict[Key, Fraction] = {}
        for k, c in self.terms:
            e = k[i - 1]
            nk = k[: i - 1] + (e + 1,) + k[i:]
            d = c / (e + 1)
            out[nk] = out[nk] + d if nk in out else d
        return _canonical(self.arity, out)

    def remap(self, new_arity: int, mapping: Sequence[int]) -> "Poly":
        """Substitute x_j := x_mapping[j-1] (1-based) in a space of
        ``new_arity`` variables, by renaming with no products; 0 substitutes
        the zero polynomial, and a repeated target adds the exponents."""
        if len(mapping) != self.arity:
            raise PolyError("remap length mismatch")
        out: dict[Key, Fraction] = {}
        for k, c in self.terms:
            nk = [0] * new_arity
            for e, tgt in zip(k, mapping):
                if e:
                    if not tgt:
                        break
                    nk[tgt - 1] += e
            else:
                key = tuple(nk)
                out[key] = out[key] + c if key in out else c
        return _canonical(new_arity, out)

    def subst(self, args: Sequence["Poly"]) -> "Poly":
        """Substitute x_i := args[i-1]; all args share one arity.

        The expansion runs over integers.  The first time a term uses
        argument j, the argument is scaled to integer coefficients by the
        lcm ``dens[j]`` of its denominators.  A term ``c x^k`` multiplies
        ``c.numerator`` by the integer powers and carries the denominator
        ``c.denominator * prod(dens[j]**k_j)``.  The expanded terms are
        brought to the lcm of their denominators and summed as integers,
        and each nonzero sum becomes one reduced Fraction."""
        if len(args) != self.arity:
            raise PolyError("substitution needs one polynomial per variable")
        tgt = args[0].arity if args else 0
        if any(a.arity != tgt for a in args):
            raise PolyError("substitution arguments disagree on arity")
        # powers[j][e] is (dens[j] * args[j])^e as an integer term dict,
        # filled on demand
        one = (0,) * tgt
        dens = [1] * len(args)
        powers: list[list[dict[Key, int]]] = [[] for _ in args]
        parts: list[tuple[int, dict[Key, int]]] = []
        for k, c in self.terms:
            term = {one: c.numerator}
            den = c.denominator
            for j, e in enumerate(k):
                if e == 0:
                    continue
                table = powers[j]
                if not table:
                    d = dens[j] = math.lcm(*(ac.denominator for _, ac in args[j].terms))
                    table += [{one: 1}, {ak: ac.numerator * (d // ac.denominator)
                                         for ak, ac in args[j].terms}]
                while len(table) <= e:
                    table.append(_mul_terms(table[-1], table[1]))
                term = _mul_terms(term, table[e])
                den *= dens[j] ** e
            parts.append((den, term))
        common = math.lcm(*(den for den, _ in parts))
        out: dict[Key, int] = {}
        for den, term in parts:
            scale = common // den
            for tk, tc in term.items():
                tc *= scale
                out[tk] = out[tk] + tc if tk in out else tc
        return _canonical(tgt, {tk: Fraction(tc, common) for tk, tc in out.items() if tc})

    # -- misc -----------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for k, c in reversed(self.terms):  # display leading terms first
            vars_ = " ".join(f"x{j + 1}" + (f"^{e}" if e > 1 else "")
                             for j, e in enumerate(k) if e > 0)
            parts.append(f"{format_rat(c)} {vars_}".strip())
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# vector polynomial functions on boxes


@dataclass(frozen=True)
class PolyFun:
    """Vector polynomial restricted to an open box.

    ``is_partial`` marks a composition whose range guard did not certify
    containment: the polynomial formula is exact, but the function it
    denotes may only be the restriction to the preimage of the target
    domain.  Equality ignores the flag.
    """

    domain: Box
    components: tuple[Poly, ...]
    is_partial: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        for p in self.components:
            if p.arity != self.domain.dim:
                raise PolyError("component arity differs from domain dimension")

    @property
    def arity(self) -> int:
        return self.domain.dim

    @property
    def cod_dim(self) -> int:
        return len(self.components)

    @staticmethod
    def make(domain: Box, components: Sequence[Poly], partial: bool = False) -> "PolyFun":
        return PolyFun(domain, tuple(components), partial)

    @staticmethod
    def zero(domain: Box, cod_dim: int) -> "PolyFun":
        return PolyFun.make(domain, [Poly.zero(domain.dim)] * cod_dim)

    @staticmethod
    def identity(domain: Box) -> "PolyFun":
        return _picks(domain, range(1, domain.dim + 1))

    def restrict(self, sub: Box) -> "PolyFun":
        if sub.dim != self.arity:
            raise DomainMismatchError("restriction changes dimension")
        return PolyFun(sub, self.components, self.is_partial)


_PICKS: dict[tuple[int, tuple[int, ...]], tuple[Poly, ...]] = {}  # (m, indices) -> components


def _picks(domain: Box, indices: Sequence[int]) -> PolyFun:
    """The map whose k-th component reads coordinate indices[k] (1-based);
    index 0 is the zero component.  The components of each (m, indices)
    are built once and shared by every map of that shape."""
    key = (domain.dim, tuple(indices))
    comps = _PICKS.get(key)
    if comps is None:
        m = domain.dim
        comps = _PICKS[key] = tuple(Poly.var(m, i) if i else Poly.zero(m) for i in indices)
    return PolyFun(domain, comps)


def eval_at(f: PolyFun, xs: Sequence[RatLike]) -> tuple[Fraction, ...]:
    if not f.domain.contains(xs):
        raise PolyError(f"point {tuple(map(str, xs))} outside domain {f.domain}")
    return tuple(p.eval(xs) for p in f.components)


# -- range enclosure ---------------------------------------------------------


def _enclose(p: Poly, factors: Sequence[Enclosure],
             powers: dict[tuple[int, int], Enclosure]) -> Enclosure:
    """Monomial-wise enclosure of p over the closed factors; ``powers``
    caches factors[j].pow(e) under (j, e) across calls."""
    total = Enclosure.const(0)
    for k, c in p.terms:
        term = Enclosure.const(c)
        for j, e in enumerate(k):
            if e:
                pw = powers.get((j, e))
                if pw is None:
                    pw = powers[j, e] = factors[j].pow(e)
                term = term.mul(pw)
        total = total.add(term)
    return total


def range_bound(f: PolyFun) -> list[Enclosure]:
    """Closed conservative enclosure of each component over the closure of
    the domain, by monomial-wise interval arithmetic."""
    factors = [r.closure() for r in f.domain.factors]
    powers: dict[tuple[int, int], Enclosure] = {}
    return [_enclose(p, factors, powers) for p in f.components]


def _constant_split(p: Poly) -> tuple[Fraction, tuple[tuple[Key, Fraction], ...]]:
    """(p(0), the nonconstant terms): graded order puts a constant term first."""
    terms = p.terms
    if terms and not any(terms[0][0]):
        return terms[0][1], terms[1:]
    return Fraction(0), terms


def _affine_fits(p: Poly, rays: Sequence[Ray1], ray: Ray1) -> Optional[bool]:
    """Whether p maps the open box with factors ``rays`` into ``ray``,
    decided exactly when p is affine; None when p has degree >= 2.

    On an open box a nonconstant c0 + sum c_j x_j takes exactly the open
    interval between its infimum and supremum, which may equal the ray; a
    constant takes one point, which must lie strictly inside it."""
    if p.terms and sum(p.terms[-1][0]) > 1:  # graded order: the last term has the top degree
        return None
    c0, terms = _constant_split(p)
    if not terms:
        return ray.contains(c0)
    lo: Optional[Fraction] = c0
    hi: Optional[Fraction] = c0
    for k, c in terms:
        r = rays[k.index(1)]
        low_end, high_end = (r.lo, r.hi) if c > 0 else (r.hi, r.lo)
        lo = None if lo is None or low_end is None else lo + c * low_end
        hi = None if hi is None or high_end is None else hi + c * high_end
    return ((ray.lo is None or (lo is not None and ray.lo <= lo))
            and (ray.hi is None or (hi is not None and hi <= ray.hi)))


def _half_widths(rays: Sequence[Ray1]) -> Optional[tuple[list[int], int]]:
    """(n, q) when the box is centred at 0, each factor (-n_j/q, n_j/q) with
    integers n_j and q; None from the first factor that is not."""
    his = []
    for r in rays:
        if r.hi is None or r.lo != -r.hi:
            return None
        his.append(r.hi)
    q = math.lcm(*[h.denominator for h in his])
    return [h.numerator * (q // h.denominator) for h in his], q


def _centred_fits(p: Poly, ray: Ray1, nums: Sequence[int]) -> Callable[[int], bool]:
    """q -> whether p certifiably maps the open box with factors
    (-n_j/q, n_j/q) into the ray, which has a finite end: the guard in
    closed form.

    There, with h_j = n_j/q, every power [-h,h]^e encloses to [-h^e, h^e]
    and products of symmetric intervals stay symmetric, so
    p = c0 + sum c_a x^a encloses to exactly [c0 - S, c0 + S], with
    S = sum |c_a| h^a over the nonconstant terms.  With m the distance from
    c0 to the ray's finite ends, an affine p fits iff S <= m (the open box
    maps onto (c0 - S, c0 + S)) and any other p iff S < m (a constant,
    S = 0, or a closed enclosure must lie in the open ray).  Scaled by the
    lcm of the denominators and q^deg p, both sides are integers."""
    c0, terms = _constant_split(p)
    m = min(d for d in (None if ray.lo is None else c0 - ray.lo,
                        None if ray.hi is None else ray.hi - c0) if d is not None)
    top = sum(terms[-1][0]) if terms else 0  # graded order: the last term has the top degree
    den = math.lcm(m.denominator, *(c.denominator for _, c in terms))
    scaled = [(top - sum(a), abs(c.numerator) * (den // c.denominator)
               * math.prod(map(pow, nums, a))) for a, c in terms]
    bound = m.numerator * (den // m.denominator)

    def fits(q: int) -> bool:
        s, t = sum(v * q ** d for d, v in scaled), bound * q ** top
        return s < t or s == t and top == 1
    return fits


def range_fits(f: PolyFun, target: Box) -> bool:
    """Whether f certifiably maps its open domain into the target,
    componentwise: an affine component is decided exactly
    (``_affine_fits``), one of degree >= 2 by whether its monomial-wise
    enclosure over the closed domain fits (``_enclose``, or
    ``_centred_fits`` on a domain centred at 0).  Only the components whose
    target ray has a finite end are checked, and the first misfit ends the
    check."""
    if f.cod_dim != target.dim:
        return False
    rays, powers = f.domain.factors, {}
    half: Optional[tuple[list[int], int]] | bool = False  # _half_widths(rays), on first need
    for p, ray in zip(f.components, target.factors):
        if ray.is_full:
            continue
        fits = _affine_fits(p, rays, ray)
        if fits is None:
            if half is False:
                half = _half_widths(rays)
            fits = (_centred_fits(p, ray, half[0])(half[1]) if half is not None
                    else _enclose(p, [r.closure() for r in rays], powers).fits_within(ray))
        if not fits:
            return False
    return True


# -- classical operations ------------------------------------------------------


def compose(f: PolyFun, g: PolyFun, permissive: bool = False) -> PolyFun:
    """f after g, by exact substitution; domain is g's domain.

    The guard (``range_fits``) checks g's range inside f's open domain;
    in permissive mode a failing guard tags the result partial instead of
    raising (mirroring restriction of the composite to the preimage).
    """
    if g.cod_dim != f.arity:
        raise PolyError(f"composition dimension mismatch: {g.cod_dim} -> {f.arity}")
    guard_ok = range_fits(g, f.domain)
    if not guard_ok and not permissive:
        raise CompositionGuardError(
            f"range of inner function is not certified inside {f.domain}")
    return _substitute(f, g, not guard_ok)


def _pick_index(p: Poly) -> Optional[int]:
    """j when p is the coordinate x_j with coefficient 1, 0 when p is zero,
    None otherwise."""
    if not p.terms:
        return 0
    if len(p.terms) == 1:
        (k, c), = p.terms
        if c == 1 and sum(k) == 1:
            return k.index(1) + 1
    return None


def _substitute(f: PolyFun, g: PolyFun, uncertified: bool) -> PolyFun:
    """f after g with no range guard; the caller has run it, and the
    result is partial when it did not certify or either side is partial.
    When g only picks coordinates (or is zero) componentwise, as the
    coordinate maps do, substitution is a renaming of f's variables."""
    picks = [_pick_index(q) for q in g.components]
    if None in picks:
        comps = [p.subst(list(g.components)) for p in f.components]
    else:
        comps = [p.remap(g.arity, picks) for p in f.components]
    return PolyFun.make(g.domain, comps, uncertified or g.is_partial or f.is_partial)


def tuple_(fs: Sequence[PolyFun]) -> PolyFun:
    """Cartesian pairing: component block j reads its arguments from
    domain block j."""
    dom = product([f.domain for f in fs])
    m = dom.dim
    comps: list[Poly] = []
    offset = 0
    partial = False
    for f in fs:
        mapping = list(range(offset + 1, offset + f.arity + 1))
        comps.extend(p.remap(m, mapping) for p in f.components)
        offset += f.arity
        partial = partial or f.is_partial
    return PolyFun.make(dom, comps, partial)


def vsum(f: PolyFun, g: PolyFun) -> PolyFun:
    if f.domain != g.domain:
        raise DomainMismatchError("vsum needs equal domains")
    if f.cod_dim != g.cod_dim:
        raise DomainMismatchError("vsum needs equal codomain dimensions")
    return PolyFun.make(f.domain, [a.add(b) for a, b in zip(f.components, g.components)],
                        f.is_partial or g.is_partial)


def vneg(f: PolyFun) -> PolyFun:
    return PolyFun(f.domain, tuple(p.neg() for p in f.components), f.is_partial)


def vprod(f: PolyFun, g: PolyFun) -> PolyFun:
    """Outer product flattened row-major: ``vecprod`` after the pair (f, g)."""
    if f.domain != g.domain:
        raise DomainMismatchError("vprod needs equal domains")
    pair = PolyFun.make(f.domain, f.components + g.components, f.is_partial or g.is_partial)
    return _substitute(vecprod(f.cod_dim, g.cod_dim), pair, False)


# -- named primitives -----------------------------------------------------------


def const_fun(domain: Box, values: Sequence[RatLike]) -> PolyFun:
    m = domain.dim
    return PolyFun.make(domain, [Poly.const(m, v) for v in values])


def incl(sub: Box) -> PolyFun:
    """Identity restricted to the sub-box, viewed into R^m."""
    return PolyFun.identity(sub)


def diag(domain: Box, k: int) -> PolyFun:
    """x -> (x, ..., x), k copies."""
    if k < 1:
        raise PolyError("diagonal needs k >= 1")
    return _picks(domain, list(range(1, domain.dim + 1)) * k)


def proj_block(blocks: Sequence[Box], idx: int) -> PolyFun:
    """Projection of a product of boxes onto its idx-th block (1-based)."""
    if not 1 <= idx <= len(blocks):
        raise PolyError("block index out of range")
    offset = sum(b.dim for b in blocks[: idx - 1])
    return _picks(product(list(blocks)), range(offset + 1, offset + blocks[idx - 1].dim + 1))


def coord(m: int, i: int) -> PolyFun:
    if not 1 <= i <= m:
        raise PolyError(f"variable index {i} out of range for arity {m}")
    return _picks(Box.full(m), [i])


def _deletion(m: int, i: int) -> list[int]:
    """The coordinates R^(m+1) -> R^m keeps when it deletes coordinate i:
    x_k for k < i and x_(k+1) for k >= i."""
    return [k if k < i else k + 1 for k in range(1, m + 1)]


def proje(m: int, i: int) -> PolyFun:
    """R^(m+1) -> R^m deleting coordinate i."""
    if not 1 <= i <= m + 1:
        raise PolyError("proje index out of range")
    return _picks(Box.full(m + 1), _deletion(m, i))


def sectn(m: int, i: int) -> PolyFun:
    """R^(m+1) -> R^m zeroing slot i and dropping the pair."""
    if not 1 <= i <= m:
        raise PolyError("sectn index out of range")
    return _picks(Box.full(m + 1),
                  [k if k < i else (0 if k == i else k + 1) for k in range(1, m + 1)])


def switch(blocks: Sequence[Box], perm: Sequence[int]) -> PolyFun:
    """Block permutation (x_1,...,x_k) -> (x_perm(1),...,x_perm(k))."""
    k = len(blocks)
    if sorted(perm) != list(range(1, k + 1)):
        raise PolyError("not a permutation")
    offsets = [0]
    for b in blocks:
        offsets.append(offsets[-1] + b.dim)
    return _picks(product(list(blocks)),
                  [offsets[t - 1] + i for t in perm for i in range(1, blocks[t - 1].dim + 1)])


def trasl(t: Sequence[RatLike]) -> PolyFun:
    """s -> s + t."""
    m = len(t)
    comps = [Poly.var(m, i).add(Poly.const(m, t[i - 1])) for i in range(1, m + 1)]
    return PolyFun.make(Box.full(m), comps)


def _linear_form(arity: int, coeffs: Mapping[int, Fraction]) -> Poly:
    """sum_j c_j x_j over the nonzero coefficients {j: c_j} (1-based j)."""
    return _canonical(arity, {tuple(int(t == j) for t in range(1, arity + 1)): c
                              for j, c in coeffs.items()})


def vecsum(m: int, k: int) -> PolyFun:
    """(R^m)^k -> R^m, sum of the k blocks."""
    if k < 1:
        raise PolyError("vecsum needs k >= 1")
    ar = m * k
    return PolyFun.make(Box.full(ar), [_linear_form(ar, {b * m + i: Fraction(1) for b in range(k)})
                                       for i in range(1, m + 1)])


def vecminus(m: int) -> PolyFun:
    return vneg(PolyFun.identity(Box.full(m)))


def vecprod(m: int, n: int) -> PolyFun:
    """R^m x R^n -> R^l outer product, l = max(m,1)*max(n,1) unless
    m = n = 0 (then l = 0); an R^0 block contributes the constant 0."""
    ar = m + n
    if m == 0 and n == 0:
        return PolyFun.make(Box.point(), [])
    mb, nb = max(m, 1), max(n, 1)
    lhs = [Poly.var(ar, i) if m else Poly.zero(ar) for i in range(1, mb + 1)]
    rhs = [Poly.var(ar, m + j) if n else Poly.zero(ar) for j in range(1, nb + 1)]
    return PolyFun.make(Box.full(ar), [a.mul(b) for a in lhs for b in rhs])


# -- derivative / integral actions ------------------------------------------------


def partial(f: PolyFun, i: int) -> PolyFun:
    """Componentwise d/dx_i; the zero function with the same codomain when
    i exceeds the domain dimension."""
    if i < 1:
        raise PolyError("partial index must be >= 1")
    return PolyFun(f.domain, tuple(p.partial(i) for p in f.components), f.is_partial)


def _extend(f: PolyFun, extra: int) -> PolyFun:
    """Precompose with projection on the first block: pad the domain with
    R^extra unused variables (extra >= 1)."""
    m = f.arity
    dom = product([f.domain, Box.full(extra)])
    comps = [p.remap(m + extra, list(range(1, m + 1))) for p in f.components]
    return PolyFun(dom, tuple(comps), f.is_partial)


def smint(f: PolyFun, j: int) -> PolyFun:
    """Definite integral over slot j from x_j to x_(j+1), on domint(dom, j).

    For j beyond the arity the integrand is first padded with unused
    variables (projection on the first block), after which j is interior.
    """
    if j < 1:
        raise PolyError("smint index must be >= 1")
    if j > f.arity:
        f = _extend(f, j - f.arity)
    m = f.arity
    dom = domint(f.domain, j)
    up_map, lo_map = _deletion(m, j), _deletion(m, j + 1)
    comps = []
    for p in f.components:
        anti = p.antideriv(j)
        comps.append(anti.remap(m + 1, up_map).sub(anti.remap(m + 1, lo_map)))
    return PolyFun(dom, tuple(comps), f.is_partial)


# -- operator-generator action -----------------------------------------------------


class GenKind(enum.Enum):
    """The operator generators' kinds; ``words`` re-exports this enum."""

    INT = "I"       # definite integral over slot i
    PART = "D"      # partial derivative
    PROJ = "p"      # coordinate projection of the codomain
    SUB_HI = "q"    # substitute the upper integration endpoint
    SUB_LO = "Q"    # negate and substitute the lower integration endpoint


class Orientation(enum.Enum):
    """Which integration endpoint the substitution generators read.

    UPPER is the default and the relation-consistent choice: the upper
    substitution deletes coordinate i (reads the upper endpoint x_(i+1))
    and the lower substitution negates and deletes coordinate i+1.  LOWER
    swaps the two deletions; it exists so the suite can demonstrate that
    the swapped convention breaks the endpoint-substitution relations.
    """

    UPPER = "upper"
    LOWER = "lower"


def apply_gen(gen, f: PolyFun, orientation: Orientation = Orientation.UPPER) -> PolyFun:
    """Action of a single generator on a PolyFun (the smooth semantics)."""
    i = gen.index
    m = f.arity
    if gen.kind is GenKind.INT:
        return smint(f, i)
    if gen.kind is GenKind.PART:
        return partial(f, i)
    if gen.kind is GenKind.PROJ:
        n = f.cod_dim
        if n == 0:
            return f
        comp = f.components[i - 1] if i <= n else Poly.zero(m)
        return PolyFun(f.domain, (comp,), f.is_partial)
    # the endpoint substitutions q_i (SUB_HI) and Q_i (SUB_LO)
    if i > m:
        out = _extend(f, i - m + 1)
    else:  # f after deleting coordinate i (UPPER q_i, LOWER Q_i) or i + 1
        deletion = _deletion(m, i + ((gen.kind is GenKind.SUB_LO)
                                     == (orientation is Orientation.UPPER)))
        out = PolyFun(domint(f.domain, i), tuple(p.remap(m + 1, deletion)
                                                 for p in f.components), f.is_partial)
    return out if gen.kind is GenKind.SUB_HI else vneg(out)


def apply_word(word, f: PolyFun, orientation: Orientation = Orientation.UPPER) -> PolyFun:
    """Action of a word, rightmost generator first."""
    out = f
    for g in reversed(word.gens):
        out = apply_gen(g, out, orientation)
    return out


# ---------------------------------------------------------------------------
# text and JSON forms


def format_rat(c: Fraction) -> str:
    """The text of a rational, as every printed form of the kernel shows it."""
    try:
        return str(c)
    except ValueError:  # str() of an int past sys.get_int_max_str_digits() refuses
        raise PolyError(f"a coefficient has more than {sys.get_int_max_str_digits()} "
                        "digits and cannot be printed") from None


def format_polyfun(f: PolyFun) -> str:
    comps = "; ".join(str(p) for p in f.components)
    return f"poly {f.arity}->{f.cod_dim} on {f.domain} : {comps}"


_TOKEN, _FACTOR = re.compile(r"[^\s+;}]+"), re.compile(r"x([0-9]+)(?:\^([0-9]+))?")
_HEAD, _DIMS = re.compile(r"poly\s+(\S*)"), re.compile(r"([0-9]+)->([0-9]+)")
_LITERAL = re.compile(r"[^}]*")


def _read_poly(cur: Cursor, arity: int) -> Poly:
    """Monomials joined by `+`, each whitespace-separated tokens: an optional
    coefficient, then factors."""
    out: dict[Key, Fraction] = {}
    while True:
        at, tok = cur.pos, cur.take(_TOKEN)
        if tok is None:
            raise cur.fail("empty monomial", at)
        coeff, exps = Fraction(1), [0] * arity
        if not tok[0].startswith("x"):
            coeff, tok = cur.build(at, rat, tok[0]), cur.take(_TOKEN)
        while tok:
            factor = _FACTOR.fullmatch(tok[0])
            if not factor:
                raise cur.fail(f"bad monomial factor {tok[0]!r}", tok.start())
            idx = cur.index(factor[1], tok.start(), "variable index")
            if not 1 <= idx <= arity:
                raise cur.fail(f"variable x{idx} out of range for arity {arity}", tok.start())
            # an absent exponent is 1, which is never refused
            exps[idx - 1] += cur.exponent(factor[2] or "1", tok.start() + factor.start(2))
            tok = cur.take(_TOKEN)
        out[tuple(exps)] = out.get(tuple(exps), Fraction(0)) + coeff
        if not cur.eat("+"):
            return Poly.make(arity, out)


def read_polyfun(cur: Cursor) -> PolyFun:
    """`poly m->n on <box> : comp1; ...; compn`, read up to its n-th component."""
    at = cur.pos
    head = cur.take(_HEAD)
    if head is None:
        literal = _LITERAL.match(cur.text, at)[0].rstrip()
        raise cur.fail(f"not a polynomial function literal: {literal!r}", at)
    dims, dims_at = _DIMS.fullmatch(head[1]), head.start(1)
    if dims is None:
        raise cur.fail(f"bad dimensions {head[1]!r}", dims_at)
    m = cur.index(dims[1], dims_at, "dimension")
    n = cur.index(dims[2], dims_at + dims.start(2), "dimension")
    cur.expect("on", "expected 'on'")
    dom = read_box(cur)
    if dom.dim != m:
        raise cur.fail("declared arity does not match the domain", dims_at)
    cur.expect(":", "expected ':'")
    comps = []
    for k in range(n):
        if k and not cur.eat(";"):
            raise cur.fail(f"expected {n} components, found {k}", cur.pos)
        comps.append(_read_poly(cur, m))
    return PolyFun.make(dom, comps)


def parse_polyfun(text: str) -> PolyFun:
    return Cursor(text, "polynomial text", PolyError).whole(
        read_polyfun, "trailing input after polynomial function")


def polyfun_to_json(f: PolyFun) -> dict:
    comps = [[[list(k), format_rat(c)] for k, c in p.terms] for p in f.components]
    return {"arity": f.arity, "codim": f.cod_dim, "domain": str(f.domain), "components": comps}
