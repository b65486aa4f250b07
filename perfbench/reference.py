"""Independent reference for the benchmark's answer checks, written with
sympy and sharing no code with idcalc.

Word actions use the upper orientation: ``I<i>`` integrates slot i from
x_i to x_(i+1), ``D<i>`` differentiates, ``p<i>`` picks component i,
``q<i>`` reads the upper endpoint (deletes coordinate i) and ``Q<i>``
reads the lower endpoint and negates (deletes coordinate i+1).  Words act
rightmost generator first.

A component is a sum of product terms: a rational coefficient times
factors over disjoint sets of coordinates.  Every generator touches one
coordinate at a time, so each term stays a product and nothing is ever
expanded (integrating a 32-letter word's normal form would otherwise
double the monomial count at each of its ~20 integrals).  Two results are
compared by exact evaluation at random rational points.  Word witnesses
are products of dense random univariate polynomials, one per coordinate;
since each word acts linearly and such products span the polynomials, a
random product separates two different actions with probability one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import sympy

_Y = sympy.symbols("y0:80")  # local generators of a factor


def rat(c) -> sympy.Rational:
    c = Fraction(c)
    return sympy.Rational(c.numerator, c.denominator)


@dataclass(frozen=True)
class Factor:
    coords: tuple[int, ...]  # the coordinate (1-based) of each local generator
    poly: sympy.Poly         # in _Y[:len(coords)]

    def renamed(self, mapping: dict[int, int]) -> "Factor":
        return Factor(tuple(mapping.get(c, c) for c in self.coords), self.poly)


Term = tuple[sympy.Rational, tuple[Factor, ...]]


@dataclass(frozen=True)
class Fn:
    """A polynomial map of the given arity; each component is a tuple of
    product terms."""

    arity: int
    comps: tuple[tuple[Term, ...], ...]


def _rename(f: Fn, mapping: dict[int, int], arity: int, sign: int = 1) -> Fn:
    return Fn(arity, tuple(tuple((sign * c, tuple(fa.renamed(mapping) for fa in fs))
                                 for c, fs in comp) for comp in f.comps))


def _find(fs: tuple[Factor, ...], coord: int) -> Optional[int]:
    return next((k for k, fa in enumerate(fs) if coord in fa.coords), None)


def _diff_term(term: Term, i: int) -> Optional[Term]:
    c, fs = term
    k = _find(fs, i)
    if k is None:
        return None
    fa = fs[k]
    d = fa.poly.diff(_Y[fa.coords.index(i)])
    if d.is_zero:
        return None
    return c, fs[:k] + (Factor(fa.coords, d),) + fs[k + 1:]


def _int_term(term: Term, i: int) -> Term:
    """Integral over slot i from x_i to x_(i+1); coordinates above i have
    already moved up by one, so x_i is the integration variable."""
    c, fs = term
    k = _find(fs, i)
    if k is None:
        return c, fs + (Factor((i + 1, i), sympy.Poly(_Y[0] - _Y[1], *_Y[:2], domain="QQ")),)
    fa = fs[k]
    n = len(fa.coords)
    loc = fa.coords.index(i)
    # A(upper) - A(lower): the upper endpoint keeps the local generator
    # (now coordinate i+1), the lower one is a new last generator (i).
    diff: dict = {}
    for mono, coeff in fa.poly.integrate(_Y[loc]).terms():
        diff[mono + (0,)] = coeff
        low = mono[:loc] + (0,) + mono[loc + 1:] + (mono[loc],)
        diff[low] = diff.get(low, 0) - coeff
    coords = tuple(i + 1 if cc == i else cc for cc in fa.coords) + (i,)
    poly = sympy.Poly.from_dict(diff, *_Y[:n + 1], domain="QQ")
    return c, fs[:k] + (Factor(coords, poly),) + fs[k + 1:]


def act(kind: str, i: int, f: Fn) -> Fn:
    """The action of one generator."""
    m = f.arity
    if kind == "D":
        return Fn(m, tuple(tuple(t for t in (_diff_term(term, i) for term in comp) if t)
                           for comp in f.comps))
    if kind == "p":
        n = len(f.comps)
        if n == 0:
            return f
        return Fn(m, (f.comps[i - 1],) if i <= n else ((),))
    if kind == "I":
        m = max(m, i)
        g = _rename(f, {k: k + 1 for k in range(i + 1, m + 1)}, m + 1)
        return Fn(m + 1, tuple(tuple(_int_term(term, i) for term in comp)
                               for comp in g.comps))
    if kind in "qQ":
        sign = 1 if kind == "q" else -1
        if i > m:
            return _rename(f, {}, i + 1, sign)
        first = i if kind == "q" else i + 1  # the first coordinate that moves up
        return _rename(f, {k: k + 1 for k in range(first, m + 1)}, m + 1, sign)
    raise ValueError(f"unknown generator kind {kind!r}")


def parse_word(text: str) -> list[tuple[str, int]]:
    toks = text.split()
    if toks == ["1"]:
        return []
    return [(t[0], int(t[1:])) for t in toks]


def _structural_zero(word: Sequence[tuple[str, int]], f: Fn) -> Optional[Fn]:
    """The zero map, when the word is zero on f whatever its coefficients.

    Each term is tracked only by its shape, the degree of its factor in
    each coordinate.  A derivative lowers one degree and kills a term
    whose degree there is 0; an integral splits a term into its upper-
    and lower-endpoint halves; a projection past the codomain kills the
    component.  Equal shapes are merged, which can only keep a term alive
    that a cancellation would kill, so "zero" is never claimed wrongly.
    None when some shape survives."""
    arity = f.arity
    comps = []
    for comp in f.comps:
        shapes = set()
        for _, fs in comp:
            degs = {}
            for fa in fs:
                for k, cc in enumerate(fa.coords):
                    degs[cc] = max(degs.get(cc, 0), fa.poly.degree(_Y[k]))
            shapes.add(frozenset((cc, e) for cc, e in degs.items() if e))
        comps.append(shapes)
    for kind, i in reversed(list(word)):
        if kind == "D":
            comps = [{frozenset((cc, e - (cc == i)) for cc, e in s if not (cc == i and e == 1))
                      for s in shapes if any(cc == i for cc, _ in s)} for shapes in comps]
        elif kind == "p":
            if comps:
                comps = [comps[i - 1] if i <= len(comps) else set()]
        elif kind == "I":
            arity = max(arity, i) + 1
            out = []
            for shapes in comps:
                new = set()
                for s in shapes:
                    moved = {cc + 1 if cc > i else cc: e for cc, e in s}
                    e = moved.pop(i, 0) + 1
                    new.add(frozenset({**moved, i + 1: e}.items()))
                    new.add(frozenset({**moved, i: e}.items()))
                out.append(new)
            comps = out
        else:
            first = i if kind == "q" else i + 1
            if i > arity:
                arity = i + 1
            else:
                arity += 1
                comps = [{frozenset((cc + 1 if cc >= first else cc, e) for cc, e in s)
                          for s in shapes} for shapes in comps]
    if any(comps):
        return None
    return Fn(arity, ((),) * len(comps))


def shape(word: Sequence[tuple[str, int]], f: Fn) -> tuple[int, int]:
    """(arity, codomain dimension) of the word's result on f."""
    arity, cod = f.arity, len(f.comps)
    for kind, i in reversed(list(word)):
        if kind == "p":
            cod = min(cod, 1)
        elif kind in "IqQ":
            arity = max(arity, i) + 1
    return arity, cod


def act_word(word: Sequence[tuple[str, int]], f: Fn) -> Fn:
    zero = _structural_zero(word, f)
    if zero is not None:
        return zero
    for kind, i in reversed(list(word)):
        f = act(kind, i, f)
    return f


def value(f: Fn, point: dict[int, sympy.Rational]) -> tuple:
    """Exact value at a point given as {coordinate: value}."""
    out = []
    for comp in f.comps:
        total = sympy.Integer(0)
        for c, fs in comp:
            prod = c
            for fa in fs:
                prod *= fa.poly(*(point[cc] for cc in fa.coords))
            total += prod
        out.append(total)
    return tuple(out)


def sample_points(rng: random.Random, arity: int, count: int = 2) -> list[dict]:
    return [{j: sympy.Rational(rng.randint(-10**6, 10**6), rng.randint(1, 10**3))
             for j in range(1, arity + 1)} for _ in range(count)]


def agree(f: Fn, g: Fn, rng: random.Random, count: int = 2) -> bool:
    """Same arity, same number of components and equal values at random
    points."""
    if f.arity != g.arity or len(f.comps) != len(g.comps):
        return False
    return all(value(f, pt) == value(g, pt) for pt in sample_points(rng, f.arity, count))


# ---------------------------------------------------------------------------
# witnesses


def witness_size(*words: Sequence[tuple[str, int]]) -> tuple[int, int, int]:
    """(arity, codomain, degree) of a witness sized to the words: arity at
    least the largest index plus the number of I/q/Q, codomain at least
    the largest p index, degree above the number of D."""
    arity, cod, deg = 1, 1, 1
    for w in words:
        top = max((i for _, i in w), default=1)
        arity = max(arity, top + sum(k in "IqQ" for k, _ in w))
        cod = max([cod] + [i for k, i in w if k == "p"])
        deg = max(deg, sum(k == "D" for k, _ in w) + 1)
    return arity, cod, deg


def _rand_rat(rng: random.Random) -> sympy.Rational:
    return sympy.Rational(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))


def product_witness(rng: random.Random, arity: int, cod: int, deg: int) -> Fn:
    """Each component is one product of a dense random polynomial of
    degree ``deg`` per coordinate."""
    comps = []
    for _ in range(cod):
        fs = tuple(Factor((j,), sympy.Poly([_rand_rat(rng) for _ in range(deg + 1)], _Y[0],
                                           domain="QQ"))
                   for j in range(1, arity + 1))
        comps.append(((_rand_rat(rng), fs),))
    return Fn(arity, tuple(comps))


def from_terms(arity: int, comps: Sequence[Sequence[tuple[Sequence[int], object]]]) -> Fn:
    """A map given componentwise as (exponents, coefficient) monomials."""
    out = []
    for comp in comps:
        terms = []
        for exps, c in comp:
            fs = tuple(Factor((j,), sympy.Poly(_Y[0] ** e, _Y[0], domain="QQ"))
                       for j, e in enumerate(exps, start=1) if e)
            terms.append((rat(c), fs))
        out.append(tuple(terms))
    return Fn(arity, tuple(out))


def words_agree(w1: Sequence[tuple[str, int]], w2: Sequence[tuple[str, int]],
                rng: random.Random) -> bool:
    """Both words act alike on a product witness sized to the pair."""
    f = product_witness(rng, *witness_size(w1, w2))
    return agree(act_word(w1, f), act_word(w2, f), rng)


def separates(w1: Sequence[tuple[str, int]], w2: Sequence[tuple[str, int]], f: Fn,
              rng: random.Random) -> bool:
    """The two words act differently on f."""
    return not agree(act_word(w1, f), act_word(w2, f), rng, count=3)


# ---------------------------------------------------------------------------
# polynomial maps, Jacobians and vanishing spaces (sympy Poly over QQ in
# x1..x_arity)


def x(j: int) -> sympy.Symbol:
    """The coordinate x_j (1-based)."""
    return sympy.Symbol(f"x{j}")


def gens(arity: int) -> list[sympy.Symbol]:
    return [x(j) for j in range(1, arity + 1)]


def poly(terms: Sequence[tuple[Sequence[int], object]], arity: int) -> sympy.Poly:
    """The polynomial sum c * prod x_j^e_j over (exponents, coefficient)
    pairs."""
    rep: dict = {}
    for exps, c in terms:
        rep[tuple(exps)] = rep.get(tuple(exps), 0) + rat(c)
    return sympy.Poly.from_dict(rep or {(0,) * arity: 0}, *gens(arity), domain="QQ")


def subst(p: sympy.Poly, args: Sequence[sympy.Poly]) -> sympy.Poly:
    """Substitution x_j := args[j-1]; the args share their generators."""
    out = args[0] * 0
    for exps, c in p.terms():
        term = args[0] * 0 + c
        for a, e in zip(args, exps):
            if e:
                term = term * a ** e
        out = out + term
    return out


def jacobian_at_zero(comps: Sequence[sympy.Poly], arity: int) -> sympy.Matrix:
    return sympy.Matrix(len(comps), arity,
                        lambda r, j: comps[r].diff(x(j + 1)).coeff_monomial(1))


def directional(comps: Sequence[sympy.Poly], u: Sequence) -> list[sympy.Poly]:
    """sum_l u_l d/dx_l of each component."""
    out = []
    for c in comps:
        d = c * 0
        for l, ul in enumerate(u, start=1):
            if ul:
                d = d + c.diff(x(l)) * rat(ul)
        out.append(d)
    return out


def annihilates(comps: Sequence[sympy.Poly], u: Sequence) -> bool:
    return all(d.is_zero for d in directional(comps, u))


def vanishing_rank(comps: Sequence[sympy.Poly], arity: int) -> int:
    """Rank of the linear system in u whose solutions are the directions
    with sum_l u_l d/dx_l z identically zero: one row per component and
    monomial of the partial derivatives."""
    rows: dict = {}
    for ci, c in enumerate(comps):
        for l in range(1, arity + 1):
            for mono, coeff in c.diff(x(l)).terms():
                if coeff:
                    rows.setdefault((ci, mono), [0] * arity)[l - 1] = coeff
    return sympy.Matrix(list(rows.values())).rank() if rows else 0
