"""Exact vector-valued multivariate polynomials on boxes.

``Poly`` is a scalar polynomial over rationals with a fixed arity;
``PolyFun`` bundles a box domain with a tuple of components and carries
the whole calculus: evaluation, partial derivatives, the one-variable
definite integral with domain extension (``smint``), composition with a
conservative range guard, tupling, the vector-space/product operations,
the named primitive functions, and the action of the operator generators.

Everything is exact; no floats enter this module.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .boxes import Box, BoxError, Enclosure, RatLike, domint, parse_box, product, rat

Key = tuple[int, ...]


class PolyError(ValueError):
    pass


class CompositionGuardError(PolyError):
    """The conservative range enclosure escapes the target domain."""


class DomainMismatchError(PolyError):
    pass


# ---------------------------------------------------------------------------
# scalar polynomials


def _grlex_key(k: Key) -> tuple:
    return (sum(k), k)


@dataclass(frozen=True)
class Poly:
    """Multivariate polynomial; ``terms`` maps exponent tuples to nonzero
    coefficients.  Keys all have length ``arity``."""

    arity: int
    terms: tuple[tuple[Key, Fraction], ...]  # canonical graded-lex order

    # -- construction -------------------------------------------------------

    @staticmethod
    def make(arity: int, terms: Mapping[Key, RatLike]) -> "Poly":
        clean: dict[Key, Fraction] = {}
        for k, c in terms.items():
            c = rat(c)
            if len(k) != arity:
                raise PolyError(f"exponent tuple {k} in arity-{arity} polynomial")
            if any(e < 0 for e in k):
                raise PolyError(f"negative exponent in {k}")
            if c != 0:
                clean[tuple(k)] = clean.get(tuple(k), Fraction(0)) + c
        items = tuple(sorted(((k, c) for k, c in clean.items() if c != 0),
                             key=lambda kc: _grlex_key(kc[0])))
        return Poly(arity, items)

    @staticmethod
    def zero(arity: int) -> "Poly":
        return Poly.make(arity, {})

    @staticmethod
    def const(arity: int, c: RatLike) -> "Poly":
        return Poly.make(arity, {(0,) * arity: rat(c)})

    @staticmethod
    def var(arity: int, i: int) -> "Poly":
        """The coordinate x_i (1-based)."""
        if not 1 <= i <= arity:
            raise PolyError(f"variable index {i} out of range for arity {arity}")
        k = tuple(1 if j == i - 1 else 0 for j in range(arity))
        return Poly.make(arity, {k: 1})

    # -- ring operations -----------------------------------------------------

    def _tdict(self) -> dict[Key, Fraction]:
        return dict(self.terms)

    def add(self, other: "Poly") -> "Poly":
        if self.arity != other.arity:
            raise PolyError("arity mismatch in +")
        out = self._tdict()
        for k, c in other.terms:
            out[k] = out.get(k, Fraction(0)) + c
        return Poly.make(self.arity, out)

    def neg(self) -> "Poly":
        return Poly(self.arity, tuple((k, -c) for k, c in self.terms))

    def sub(self, other: "Poly") -> "Poly":
        return self.add(other.neg())

    def mul(self, other: "Poly") -> "Poly":
        if self.arity != other.arity:
            raise PolyError("arity mismatch in *")
        out: dict[Key, Fraction] = {}
        for k1, c1 in self.terms:
            for k2, c2 in other.terms:
                k = tuple(a + b for a, b in zip(k1, k2))
                out[k] = out.get(k, Fraction(0)) + c1 * c2
        return Poly.make(self.arity, out)

    def scale(self, c: RatLike) -> "Poly":
        c = rat(c)
        if c == 0:
            return Poly.zero(self.arity)
        return Poly(self.arity, tuple((k, c * co) for k, co in self.terms))

    def pow(self, e: int) -> "Poly":
        out = Poly.const(self.arity, 1)
        for _ in range(e):
            out = out.mul(self)
        return out

    # -- calculus ------------------------------------------------------------

    def eval(self, xs: Sequence[RatLike]) -> Fraction:
        if len(xs) != self.arity:
            raise PolyError("evaluation point length mismatch")
        vals = [rat(x) for x in xs]
        total = Fraction(0)
        for k, c in self.terms:
            term = c
            for x, e in zip(vals, k):
                for _ in range(e):
                    term *= x
            total += term
        return total

    def partial(self, i: int) -> "Poly":
        """d/dx_i (1-based); zero if i exceeds the arity."""
        if i > self.arity:
            return Poly.zero(self.arity)
        out: dict[Key, Fraction] = {}
        for k, c in self.terms:
            e = k[i - 1]
            if e == 0:
                continue
            nk = k[: i - 1] + (e - 1,) + k[i:]
            out[nk] = out.get(nk, Fraction(0)) + c * e
        return Poly.make(self.arity, out)

    def antideriv(self, i: int) -> "Poly":
        """An antiderivative with respect to x_i (no constant term in x_i)."""
        out: dict[Key, Fraction] = {}
        for k, c in self.terms:
            e = k[i - 1]
            nk = k[: i - 1] + (e + 1,) + k[i:]
            out[nk] = out.get(nk, Fraction(0)) + c / (e + 1)
        return Poly.make(self.arity, out)

    def remap(self, new_arity: int, mapping: Sequence[int]) -> "Poly":
        """Rename variable j (1-based) to ``mapping[j-1]`` in a larger or
        equal variable space; the mapping must be injective."""
        if len(mapping) != self.arity:
            raise PolyError("remap length mismatch")
        out: dict[Key, Fraction] = {}
        for k, c in self.terms:
            nk = [0] * new_arity
            for e, tgt in zip(k, mapping):
                nk[tgt - 1] += e
            out[tuple(nk)] = out.get(tuple(nk), Fraction(0)) + c
        return Poly.make(new_arity, out)

    def subst(self, args: Sequence["Poly"]) -> "Poly":
        """Substitute x_i := args[i-1]; all args share one arity."""
        if len(args) != self.arity:
            raise PolyError("substitution needs one polynomial per variable")
        tgt = args[0].arity if args else 0
        if any(a.arity != tgt for a in args):
            raise PolyError("substitution arguments disagree on arity")
        pow_cache: list[dict[int, Poly]] = [dict() for _ in args]
        out = Poly.zero(tgt)
        for k, c in self.terms:
            term = Poly.const(tgt, c)
            for j, e in enumerate(k):
                if e == 0:
                    continue
                cache = pow_cache[j]
                if e not in cache:
                    cache[e] = args[j].pow(e)
                term = term.mul(cache[e])
            out = out.add(term)
        return out

    # -- misc -----------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((sum(k) for k, _ in self.terms), default=0)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for k, c in reversed(self.terms):  # display leading terms first
            vars_ = " ".join(f"x{j + 1}" + (f"^{e}" if e > 1 else "")
                             for j, e in enumerate(k) if e > 0)
            parts.append(f"{c} {vars_}".strip())
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# vector polynomial functions on boxes


@dataclass(frozen=True)
class PolyFun:
    """Vector polynomial restricted to an open box.

    ``is_partial`` marks a composition whose conservative range guard did
    not certify containment: the polynomial formula is exact, but the
    function it denotes may only be the restriction to the preimage of
    the target domain.  Equality ignores the flag.
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
        m = domain.dim
        return PolyFun.make(domain, [Poly.var(m, i) for i in range(1, m + 1)])

    @staticmethod
    def scalar(domain: Box, p: Poly) -> "PolyFun":
        return PolyFun.make(domain, [p])

    def tag_partial(self) -> "PolyFun":
        return PolyFun(self.domain, self.components, True)

    def restrict(self, sub: Box) -> "PolyFun":
        if sub.dim != self.arity:
            raise DomainMismatchError("restriction changes dimension")
        return PolyFun(sub, self.components, self.is_partial)


def eval_at(f: PolyFun, xs: Sequence[RatLike]) -> tuple[Fraction, ...]:
    if not f.domain.contains(xs):
        raise PolyError(f"point {tuple(map(str, xs))} outside domain {f.domain}")
    return tuple(p.eval(xs) for p in f.components)


# -- range enclosure ---------------------------------------------------------


def range_bound(f: PolyFun) -> list[Enclosure]:
    """Closed conservative enclosure of each component over the closure of
    the domain, by monomial-wise interval arithmetic."""
    factor_enc = [r.closure() for r in f.domain.factors]
    out = []
    for p in f.components:
        total = Enclosure.const(0)
        for k, c in p.terms:
            term = Enclosure.const(c)
            for enc, e in zip(factor_enc, k):
                if e:
                    term = term.mul(enc.pow(e))
            total = total.add(term)
        out.append(total)
    return out


def range_fits(f: PolyFun, target: Box) -> bool:
    if f.cod_dim != target.dim:
        return False
    return all(enc.fits_within(ray) for enc, ray in zip(range_bound(f), target.factors))


# -- classical operations ------------------------------------------------------


def compose(f: PolyFun, g: PolyFun, permissive: bool = False) -> PolyFun:
    """f after g, by exact substitution; domain is g's domain.

    The conservative guard checks range_bound(g) inside f's open domain;
    in permissive mode a failing guard tags the result partial instead of
    raising (mirroring restriction of the composite to the preimage).
    """
    if g.cod_dim != f.arity:
        raise PolyError(f"composition dimension mismatch: {g.cod_dim} -> {f.arity}")
    guard_ok = range_fits(g, f.domain)
    if not guard_ok and not permissive:
        raise CompositionGuardError(
            f"range enclosure of inner function is not certified inside {f.domain}")
    comps = [p.subst(list(g.components)) for p in f.components]
    out = PolyFun.make(g.domain, comps)
    if not guard_ok or g.is_partial or f.is_partial:
        out = out.tag_partial()
    return out


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
    out = PolyFun.make(dom, comps)
    return out.tag_partial() if partial else out


def vsum(f: PolyFun, g: PolyFun) -> PolyFun:
    if f.domain != g.domain:
        raise DomainMismatchError("vsum needs equal domains")
    if f.cod_dim != g.cod_dim:
        raise DomainMismatchError("vsum needs equal codomain dimensions")
    return PolyFun.make(f.domain, [a.add(b) for a, b in zip(f.components, g.components)])


def vneg(f: PolyFun) -> PolyFun:
    return PolyFun(f.domain, tuple(p.neg() for p in f.components), f.is_partial)


def vscal(a: RatLike, f: PolyFun) -> PolyFun:
    return PolyFun(f.domain, tuple(p.scale(a) for p in f.components), f.is_partial)


def vprod(f: PolyFun, g: PolyFun) -> PolyFun:
    """Outer product flattened row-major; dims m, n promote to max(m,1),
    max(n,1) with the R^0 pseudo-component read as the constant 0, and
    m = n = 0 yields the R^0-valued function."""
    if f.domain != g.domain:
        raise DomainMismatchError("vprod needs equal domains")
    m, n = f.cod_dim, g.cod_dim
    if m == 0 and n == 0:
        return PolyFun.make(f.domain, [])
    ar = f.arity
    fc = list(f.components) if m else [Poly.zero(ar)]
    gc = list(g.components) if n else [Poly.zero(ar)]
    return PolyFun.make(f.domain, [a.mul(b) for a in fc for b in gc])


# -- named primitives -----------------------------------------------------------


def const_fun(domain: Box, values: Sequence[RatLike]) -> PolyFun:
    m = domain.dim
    return PolyFun.make(domain, [Poly.const(m, v) for v in values])


def incl(sub: Box, sup: Optional[Box] = None) -> PolyFun:
    """Identity restricted to the sub-box, viewed into R^m."""
    if sup is not None:
        if sup.dim != sub.dim:
            raise BoxError("inclusion across different dimensions")
        inter = sub.intersect(sup)
        if inter != sub:
            raise BoxError("inclusion source is not contained in the target")
    return PolyFun.identity(sub)


def diag(domain: Box, k: int) -> PolyFun:
    """x -> (x, ..., x), k copies."""
    if k < 1:
        raise PolyError("diagonal needs k >= 1")
    m = domain.dim
    comps = [Poly.var(m, i) for _ in range(k) for i in range(1, m + 1)]
    return PolyFun.make(domain, comps)


def proj_block(blocks: Sequence[Box], idx: int) -> PolyFun:
    """Projection of a product of boxes onto its idx-th block (1-based)."""
    if not 1 <= idx <= len(blocks):
        raise PolyError("block index out of range")
    dom = product(list(blocks))
    m = dom.dim
    offset = sum(b.dim for b in blocks[: idx - 1])
    comps = [Poly.var(m, offset + i) for i in range(1, blocks[idx - 1].dim + 1)]
    return PolyFun.make(dom, comps)


def coord(m: int, i: int, domain: Optional[Box] = None) -> PolyFun:
    dom = domain if domain is not None else Box.full(m)
    if dom.dim != m:
        raise BoxError("coord domain dimension mismatch")
    return PolyFun.make(dom, [Poly.var(m, i)])


def proje(m: int, i: int, domain: Optional[Box] = None) -> PolyFun:
    """R^(m+1) -> R^m deleting coordinate i: components read x_k for k < i
    and x_(k+1) for k >= i."""
    if not 1 <= i <= m + 1:
        raise PolyError("proje index out of range")
    dom = domain if domain is not None else Box.full(m + 1)
    if dom.dim != m + 1:
        raise BoxError("proje domain dimension mismatch")
    comps = [Poly.var(m + 1, k if k < i else k + 1) for k in range(1, m + 1)]
    return PolyFun.make(dom, comps)


def sectn(m: int, i: int, domain: Optional[Box] = None) -> PolyFun:
    """R^(m+1) -> R^m zeroing slot i and dropping the pair."""
    if not 1 <= i <= m:
        raise PolyError("sectn index out of range")
    dom = domain if domain is not None else Box.full(m + 1)
    comps = []
    for k in range(1, m + 1):
        if k < i:
            comps.append(Poly.var(m + 1, k))
        elif k == i:
            comps.append(Poly.zero(m + 1))
        else:
            comps.append(Poly.var(m + 1, k + 1))
    return PolyFun.make(dom, comps)


def switch(blocks: Sequence[Box], perm: Sequence[int]) -> PolyFun:
    """Block permutation (x_1,...,x_k) -> (x_perm(1),...,x_perm(k))."""
    k = len(blocks)
    if sorted(perm) != list(range(1, k + 1)):
        raise PolyError("not a permutation")
    dom = product(list(blocks))
    m = dom.dim
    offsets = [0]
    for b in blocks:
        offsets.append(offsets[-1] + b.dim)
    comps = []
    for tgt in perm:
        base = offsets[tgt - 1]
        comps.extend(Poly.var(m, base + i) for i in range(1, blocks[tgt - 1].dim + 1))
    return PolyFun.make(dom, comps)


def trasl(t: Sequence[RatLike], domain: Optional[Box] = None) -> PolyFun:
    """s -> s + t."""
    m = len(t)
    dom = domain if domain is not None else Box.full(m)
    if dom.dim != m:
        raise BoxError("translation domain dimension mismatch")
    comps = [Poly.var(m, i).add(Poly.const(m, t[i - 1])) for i in range(1, m + 1)]
    return PolyFun.make(dom, comps)


def vecsum(m: int, k: int) -> PolyFun:
    """(R^m)^k -> R^m, sum of the k blocks."""
    if k < 1:
        raise PolyError("vecsum needs k >= 1")
    ar = m * k
    comps = []
    for i in range(1, m + 1):
        p = Poly.zero(ar)
        for blk in range(k):
            p = p.add(Poly.var(ar, blk * m + i))
        comps.append(p)
    return PolyFun.make(Box.full(ar), comps)


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
    if i > f.arity:
        return PolyFun.zero(f.domain, f.cod_dim)
    return PolyFun(f.domain, tuple(p.partial(i) for p in f.components), f.is_partial)


def _extend(f: PolyFun, extra: int) -> PolyFun:
    """Precompose with projection on the first block: pad the domain with
    R^extra unused variables."""
    if extra <= 0:
        return f
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
    if f.cod_dim == 0:
        return PolyFun.make(dom, [])
    up_map = [k if k < j else (j + 1 if k == j else k + 1) for k in range(1, m + 1)]
    lo_map = [k if k <= j else k + 1 for k in range(1, m + 1)]
    comps = []
    for p in f.components:
        anti = p.antideriv(j)
        comps.append(anti.remap(m + 1, up_map).sub(anti.remap(m + 1, lo_map)))
    return PolyFun(dom, tuple(comps), f.is_partial)


def delete_coord(f: PolyFun, j: int, new_domain: Box) -> PolyFun:
    """Precompose f with deletion of coordinate j (f reads x_k for k < j
    and x_(k+1) for k >= j), restricted to the given box."""
    m = f.arity
    if new_domain.dim != m + 1:
        raise BoxError("deletion target must have one extra dimension")
    mapping = [k if k < j else k + 1 for k in range(1, m + 1)]
    comps = [p.remap(m + 1, mapping) for p in f.components]
    return PolyFun(new_domain, tuple(comps), f.is_partial)


# -- operator-generator action -----------------------------------------------------


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
    from .words import GenKind  # local import: words also imports us lazily

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
        if i <= n:
            return PolyFun(f.domain, (f.components[i - 1],), f.is_partial)
        return PolyFun.zero(f.domain, 1)
    if gen.kind is GenKind.SUB_HI:
        if i <= m:
            j = i if orientation is Orientation.UPPER else i + 1
            return delete_coord(f, j, domint(f.domain, i))
        return _extend(f, i - m + 1)
    if gen.kind is GenKind.SUB_LO:
        if i <= m:
            j = i + 1 if orientation is Orientation.UPPER else i
            return vneg(delete_coord(f, j, domint(f.domain, i)))
        return vneg(_extend(f, i - m + 1))
    raise PolyError(f"unknown generator {gen}")


def apply_word(word, f: PolyFun, orientation: Orientation = Orientation.UPPER) -> PolyFun:
    """Action of a word, rightmost generator first."""
    out = f
    for g in reversed(word.gens):
        out = apply_gen(g, out, orientation)
    return out


# ---------------------------------------------------------------------------
# text and JSON forms


def format_polyfun(f: PolyFun) -> str:
    comps = "; ".join(str(p) for p in f.components)
    return f"poly {f.arity}->{f.cod_dim} on {f.domain} : {comps}"


def _parse_monomial(text: str, arity: int) -> tuple[Key, Fraction]:
    parts = text.split()
    if not parts:
        raise PolyError("empty monomial")
    try:
        coeff = rat(parts[0])
        factors = parts[1:]
    except BoxError:
        raise
    except ValueError:
        coeff = Fraction(1)
        factors = parts
    exps = [0] * arity
    for fct in factors:
        if not fct.startswith("x"):
            raise PolyError(f"bad monomial factor {fct!r}")
        body = fct[1:]
        if "^" in body:
            idx_s, e_s = body.split("^")
            idx, e = int(idx_s), int(e_s)
        else:
            idx, e = int(body), 1
        if not 1 <= idx <= arity:
            raise PolyError(f"variable x{idx} out of range for arity {arity}")
        exps[idx - 1] += e
    return tuple(exps), coeff


def _parse_poly(text: str, arity: int) -> Poly:
    t = text.strip()
    if t in ("0", ""):
        return Poly.zero(arity)
    out: dict[Key, Fraction] = {}
    for raw in t.split("+"):
        k, c = _parse_monomial(raw.strip(), arity)
        out[k] = out.get(k, Fraction(0)) + c
    return Poly.make(arity, out)


def parse_polyfun(text: str) -> PolyFun:
    """Parse `poly m->n on <box> : comp1; comp2; ...`."""
    t = text.strip()
    if not t.startswith("poly"):
        raise PolyError(f"not a polynomial function literal: {text!r}")
    head, _, body = t.partition(":")
    head = head[len("poly"):].strip()
    dims, _, dom_s = head.partition(" on ")
    m_s, _, n_s = dims.partition("->")
    m, n = int(m_s), int(n_s)
    dom = parse_box(dom_s)
    if dom.dim != m:
        raise PolyError("declared arity does not match the domain")
    comps_s = [c for c in (s.strip() for s in body.split(";")) if c != ""]
    if len(comps_s) != n:
        raise PolyError(f"expected {n} components, found {len(comps_s)}")
    return PolyFun.make(dom, [_parse_poly(c, m) for c in comps_s])


def polyfun_to_json(f: PolyFun) -> dict:
    return {
        "arity": f.arity,
        "codim": f.cod_dim,
        "domain": str(f.domain),
        "components": [[[list(k), str(c)] for k, c in p.terms] for p in f.components],
    }


def polyfun_from_json(obj: Mapping) -> PolyFun:
    dom = parse_box(obj["domain"])
    comps = []
    for comp in obj["components"]:
        comps.append(Poly.make(obj["arity"], {tuple(k): rat(c) for k, c in comp}))
    f = PolyFun.make(dom, comps)
    if f.cod_dim != obj["codim"]:
        raise PolyError("codim field does not match the component count")
    return f
