"""Oracles the suite checks the kernel against.

- The relation table's instances: both sides of an instance as words, and
  whether the two act alike on one function.  The normalizer and
  ``relation_step`` match windows; these build whole sides from a rule and
  its indices instead.
- The normalizer's strategy, read apart from its engine: every oriented
  rule bound at every position of a word.  ``normalize`` reads each window
  once into a record and takes its steps in two phases; the replay tests
  check each of them against this reading.
- Structural equality of terms: the kernel's inner term nodes compare and
  hash by identity, since no product path compares two composite terms.
- A term evaluated under an endpoint orientation: the kernel acts under the
  upper one, and only the catalogue's trial context applies the lower one,
  as a relabelling of the term.
- The bridge's slope: the derivative of each Hermite arc, evaluated
  directly.  ``make_bridge`` checks only each arc's closed-form slope
  minimum.
- A term's opaque leaves, by name and domain: what an instantiation of
  the term must assign.
- Whether a term holds a composition whose left factor is a composition:
  what ``max_augment`` leaves none of.
- Scaling by a rational, of a polynomial and of a function: no kernel
  operation scales alone (``apply`` folds its scalars into the derivative
  it sums, and ``scal_t`` multiplies by a constant function).
- ``word_eq`` applying both words whole to each witness, with the
  witnesses drawn afresh from ``Random(seed)`` on every call or taken from
  the kernel's store: the kernel applies a pair's common suffix once per
  witness, and keeps each seed's first witnesses.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable, Optional

import numpy as np

from idcalc.boxes import Box, RatLike, rat
from idcalc.polynomials import Orientation, Poly, PolyFun, apply_word
from idcalc.relations import Ctx
from idcalc.sphere import Bridge
from idcalc.terms import Act, Comp, Opaque, Term, _fold, children
from idcalc.words import (_ORIENTED, _PRIORITY_CLASSES, RELATIONS, Equal, NotEqual, Unknown, Word,
                          WordError, _emit, _Matcher, _packed, _random_polyfun, _witnesses,
                          normalize)

# ---------------------------------------------------------------------------
# relation instances


def uses_j(m: _Matcher) -> bool:
    return any(var == "j" for _, var, _ in m.src + m.dst)


def relation_sides(rule_id: str, i: int, j: Optional[int]) -> tuple[Word, Word]:
    """Both sides of one relation instance."""
    m = RELATIONS[rule_id]
    if uses_j(m) and j is None:
        raise WordError(f"{rule_id} needs j")
    if not m.cond(i, j):
        raise WordError(f"side condition fails for {rule_id} with i={i}, j={j}")
    binding = {"i": i} if j is None else {"i": i, "j": j}
    return Word(_emit(m.src, binding)), Word(_emit(m.dst, binding))


def evaluate_under(t: Term, orientation: Orientation) -> PolyFun:
    """t evaluated permissively under the orientation, by the catalogue's
    trial context: the one place that applies the lower orientation."""
    return Ctx(random.Random(0), orientation, 0).evaluate(t)


def relation_holds_on(rule_id: str, i: int, j: Optional[int], f: PolyFun,
                      orientation: Orientation = Orientation.UPPER) -> bool:
    """Check one relation instance semantically on a single function."""
    lhs, rhs = relation_sides(rule_id, i, j)
    return evaluate_under(Act(lhs, f), orientation) == evaluate_under(Act(rhs, f), orientation)


def relation_instances() -> Iterable[tuple[str, int, Optional[int]]]:
    """All relation instances with indices up to 4."""
    indices = range(1, 5)
    for rule_id, m in RELATIONS.items():
        for i, j in itertools.product(indices, indices if uses_j(m) else (None,)):
            if m.cond(i, j):
                yield rule_id, i, j


# ---------------------------------------------------------------------------
# the oriented strategy


def oriented_steps(w: Word) -> list[tuple[int, str, str]]:
    """The schedulable steps: all redexes of the highest nonempty priority
    class, except that the integral shuffle is serialized leftmost
    (contraction order of disjoint shuffle redexes is observable through
    later derivative moves).  Any schedule choosing among these reaches
    the same normal form (checked by the confluence suite)."""
    letters = _packed(w)
    for rules in _PRIORITY_CLASSES:
        steps = [(pos,) + rule for pos in range(len(w.gens)) for rule in rules
                 if _ORIENTED[rule].bind(letters, pos) is not None]
        if steps:
            return steps[:1] if steps[0][1] == "intint" else steps
    return []


# ---------------------------------------------------------------------------
# structural term equality


def same_term(a: Term, b: Term) -> bool:
    """Whether two terms have the same shape, words and leaves at every
    address.  The walk runs on an explicit stack, since terms built in code
    nest to any depth; it passes over identical nodes at once, and compares
    each pair of node objects once, so it stays linear on shared DAGs."""
    seen = set()
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y or (id(x), id(y)) in seen:
            continue
        seen.add((id(x), id(y)))
        kx, ky = children(x), children(y)
        if (type(x) is not type(y) or len(kx) != len(ky) or (not kx and x != y)
                or (isinstance(x, Act) and x.word != y.word)):
            return False
        stack.extend(zip(kx, ky))
    return True


# ---------------------------------------------------------------------------
# the bridge's slope


def hermite_deriv(coeffs, r):
    c0, c1, c2, c3, a, h = coeffs
    s = (np.asarray(r, dtype=float) - a) / h
    return (c1 + s * (2 * c2 + 3 * s * c3)) / h


def bridge_slope(br: Bridge, r):
    r = np.asarray(r, dtype=float)
    mid1 = hermite_deriv(br.arc1, r)
    mid2 = hermite_deriv(br.arc2, r)
    return np.where(r <= br.left_knot, 1.0,
                    np.where(r <= 0.5, mid1,
                             np.where(r <= br.right_knot, mid2, 1.0)))


def slope_at_half(br: Bridge) -> float:
    return float(hermite_deriv(br.arc1, 0.5))


# ---------------------------------------------------------------------------
# opaque leaves


def opaque_domains(t: Term) -> dict[str, Box]:
    """The name and domain of every opaque leaf of the term."""
    def visit(node: Term, kids: list[dict[str, Box]]) -> dict[str, Box]:
        out = {node.name: node.domain} if isinstance(node, Opaque) else {}
        for kid in kids:
            out.update(kid)
        return out
    return _fold(t, visit)


# ---------------------------------------------------------------------------
# left-nested compositions


def has_left_nested_comp(t: Term) -> bool:
    return _fold(t, lambda node, kids: any(kids) or (
        isinstance(node, Comp) and isinstance(node.left, Comp)), children, {})


# ---------------------------------------------------------------------------
# scaling


def scale(p: Poly, c: RatLike) -> Poly:
    c = rat(c)
    if c == 0:
        return Poly.zero(p.arity)
    return Poly(p.arity, tuple((k, c * co) for k, co in p.terms))


def vscal(a: RatLike, f: PolyFun) -> PolyFun:
    return PolyFun(f.domain, tuple(scale(p, a) for p in f.components), f.is_partial)


# ---------------------------------------------------------------------------
# word equality, both words applied whole


def _word_eq_whole(w1: Word, w2: Word, witnesses: Iterable[PolyFun]):
    if normalize(w1) == normalize(w2):
        return Equal()
    for f in witnesses:
        if apply_word(w1, f) != apply_word(w2, f):
            return NotEqual(witness=f)
    return Unknown()


def word_eq_per_call(w1: Word, w2: Word, trials: int, seed: int):
    """Drawing every witness afresh."""
    rng = random.Random(seed)
    return _word_eq_whole(w1, w2, (_random_polyfun(rng) for _ in range(trials)))


def word_eq_whole_words(w1: Word, w2: Word, trials: int = 12, seed: int = 0):
    """On the kernel's witnesses."""
    return _word_eq_whole(w1, w2, itertools.islice(_witnesses(seed), trials))
