"""Words over the operator generators, their relation table, and the word
problem machinery.

Generators: integrals I<i>, partial derivatives D<i>, coordinate
projections p<i>, and the two endpoint substitutions q<i> (upper) and
Q<i> (lower).  A word is a finite sequence of generators acting rightmost
first.

``normalize`` orients the relation table into a terminating rewrite
strategy; ``word_eq`` backs equality of normal forms with a semantic
oracle that evaluates both words on random exact polynomials.
"""

from __future__ import annotations

import enum
import itertools
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .boxes import Box, IdcalcError, domint
from .polynomials import Orientation, Poly, PolyFun, apply_word


class WordError(IdcalcError):
    pass


class GenKind(enum.Enum):
    INT = "I"       # definite integral over slot i
    PART = "D"      # partial derivative
    PROJ = "p"      # coordinate projection of the codomain
    SUB_HI = "q"    # substitute the upper integration endpoint
    SUB_LO = "Q"    # negate and substitute the lower integration endpoint


@dataclass(frozen=True)
class Gen:
    kind: GenKind
    index: int

    def __post_init__(self) -> None:
        if self.index < 1:
            raise WordError("generator index must be >= 1")

    def __str__(self) -> str:
        return f"{self.kind.value}{self.index}"


def I(i: int) -> Gen:  # noqa: E743 - mirrors the token alphabet
    return Gen(GenKind.INT, i)


def D(i: int) -> Gen:
    return Gen(GenKind.PART, i)


def p(i: int) -> Gen:
    return Gen(GenKind.PROJ, i)


def q(i: int) -> Gen:
    return Gen(GenKind.SUB_HI, i)


def Q(i: int) -> Gen:
    return Gen(GenKind.SUB_LO, i)


@dataclass(frozen=True)
class Word:
    gens: tuple[Gen, ...] = ()

    @staticmethod
    def of(*gens: Gen) -> "Word":
        return Word(tuple(gens))

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.gens + other.gens)

    def __len__(self) -> int:
        return len(self.gens)

    def is_integral(self) -> bool:
        """True when no partial-derivative generator occurs."""
        return all(g.kind is not GenKind.PART for g in self.gens)

    def is_int_only(self) -> bool:
        return all(g.kind is GenKind.INT for g in self.gens)

    def __str__(self) -> str:
        return " ".join(str(g) for g in self.gens) if self.gens else "1"


def parse_word(text: str) -> Word:
    toks = text.split()
    if toks == ["1"]:
        return Word()
    kinds = {k.value: k for k in GenKind}
    gens = []
    for t in toks:
        if not t or t[0] not in kinds:
            raise WordError(f"bad generator token {t!r}")
        try:
            idx = int(t[1:])
        except ValueError:
            raise WordError(f"bad generator index in {t!r}") from None
        gens.append(Gen(kinds[t[0]], idx))
    return Word(tuple(gens))


# ---------------------------------------------------------------------------
# the relation table
#
# Each relation is a two-sided rule between one- or two-generator windows.
# Patterns are lists of (kind, var, offset): the matched generator index
# must equal var + offset, where var is one of the rule variables i, j, or
# None for the fixed index offset.  Every side names i, and every side of
# a rule that uses j names j.


Pat = tuple[GenKind, Optional[str], int]


@dataclass(frozen=True)
class Relation:
    rule_id: str
    left: tuple[Pat, ...]
    right: tuple[Pat, ...]
    cond: Callable[[int, Optional[int]], bool]

    @property
    def uses_j(self) -> bool:
        return any(var == "j" for _, var, _ in self.left + self.right)


def _rel(rule_id, left, right, cond=lambda i, j: True):
    return Relation(rule_id, tuple(left), tuple(right), cond)


K = GenKind

RELATIONS: dict[str, Relation] = {r.rule_id: r for r in [
    _rel("intint",
         [(K.INT, "i", 0), (K.INT, "j", 0)], [(K.INT, "j", 1), (K.INT, "i", 0)],
         lambda i, j: i < j),
    _rel("derint.i",
         [(K.PART, "i", 0), (K.PART, "j", 0)], [(K.PART, "j", 0), (K.PART, "i", 0)]),
    _rel("derint.ii",
         [(K.PART, "i", 0), (K.INT, "j", 0)], [(K.INT, "j", 0), (K.PART, "i", 0)],
         lambda i, j: i < j),
    _rel("derint.iii",
         [(K.PART, "i", 1), (K.INT, "j", 0)], [(K.INT, "j", 0), (K.PART, "i", 0)],
         lambda i, j: i > j),
    _rel("coordint.i",  # the one rule whose sides differ in length
         [(K.PROJ, "i", 0)], [(K.PROJ, None, 1), (K.PROJ, "i", 0)]),
    _rel("coordint.ii",
         [(K.PROJ, "i", 0), (K.INT, "j", 0)], [(K.INT, "j", 0), (K.PROJ, "i", 0)]),
    _rel("coordint.iii",
         [(K.PROJ, "i", 0), (K.PART, "j", 0)], [(K.PART, "j", 0), (K.PROJ, "i", 0)]),
    _rel("leftproj.i",
         [(K.SUB_HI, "i", 0)], [(K.PART, "i", 1), (K.INT, "i", 0)]),
    _rel("leftproj.ii",
         [(K.SUB_HI, "i", 0), (K.SUB_HI, "j", 0)], [(K.SUB_HI, "j", 1), (K.SUB_HI, "i", 0)],
         lambda i, j: i <= j),
    _rel("leftproj.iii",
         [(K.SUB_HI, "i", 0), (K.INT, "j", 0)], [(K.INT, "j", 1), (K.SUB_HI, "i", 0)],
         lambda i, j: i < j),
    _rel("leftproj.iv",
         [(K.SUB_HI, "i", 1), (K.INT, "j", 0)], [(K.INT, "j", 0), (K.SUB_HI, "i", 0)],
         lambda i, j: i + 1 >= j + 2),
    _rel("leftproj.v",
         [(K.SUB_HI, "i", 0), (K.PART, "j", 0)], [(K.PART, "j", 1), (K.SUB_HI, "i", 0)],
         lambda i, j: i <= j),
    _rel("leftproj.vi",
         [(K.SUB_HI, "i", 0), (K.PART, "j", 0)], [(K.PART, "j", 0), (K.SUB_HI, "i", 0)],
         lambda i, j: i > j),
    _rel("leftproj.vii",
         [(K.SUB_HI, "i", 0), (K.PROJ, "j", 0)], [(K.PROJ, "j", 0), (K.SUB_HI, "i", 0)]),
    _rel("rightproj.i",
         [(K.SUB_LO, "i", 0)], [(K.PART, "i", 0), (K.INT, "i", 0)]),
    _rel("rightproj.ii",
         [(K.SUB_LO, "i", 0), (K.SUB_LO, "j", 0)], [(K.SUB_LO, "j", 1), (K.SUB_LO, "i", 0)],
         lambda i, j: i <= j),
    _rel("rightproj.iii",
         [(K.SUB_LO, "i", 0), (K.INT, "j", 0)], [(K.INT, "j", 1), (K.SUB_LO, "i", 0)],
         lambda i, j: i < j),
    _rel("rightproj.iv",
         [(K.SUB_LO, "i", 1), (K.INT, "j", 0)], [(K.INT, "j", 0), (K.SUB_LO, "i", 0)],
         lambda i, j: i + 1 >= j + 2),
    _rel("rightproj.v",
         [(K.SUB_LO, "i", 0), (K.PART, "j", 0)], [(K.PART, "j", 1), (K.SUB_LO, "i", 0)],
         lambda i, j: i < j),
    _rel("rightproj.vi",
         [(K.SUB_LO, "i", 0), (K.PART, "j", 0)], [(K.PART, "j", 0), (K.SUB_LO, "i", 0)],
         lambda i, j: i >= j),
    _rel("rightproj.vii",
         [(K.SUB_LO, "i", 0), (K.PROJ, "j", 0)], [(K.PROJ, "j", 0), (K.SUB_LO, "i", 0)]),
    _rel("leftrightinter.i",
         [(K.SUB_LO, "i", 0), (K.SUB_HI, "j", 0)], [(K.SUB_HI, "j", 1), (K.SUB_LO, "i", 0)],
         lambda i, j: i < j),
    _rel("leftrightinter.ii",
         [(K.SUB_LO, "i", 1), (K.SUB_HI, "j", 0)], [(K.SUB_HI, "j", 0), (K.SUB_LO, "i", 0)],
         lambda i, j: i + 1 > j),
]}

FORWARD = "forward"
BACKWARD = "backward"


def _match_side(gens: Sequence[Gen], pos: int, pats: Sequence[Pat]) -> Optional[dict]:
    if pos + len(pats) > len(gens):
        return None
    binding: dict[str, int] = {}
    for g, (kind, var, off) in zip(gens[pos: pos + len(pats)], pats):
        if g.kind is not kind:
            return None
        val = g.index - off
        if var is None:
            if val != 0:
                return None
        elif val < 1 or binding.setdefault(var, val) != val:
            return None
    return binding


def _emit(pats: Sequence[Pat], binding: dict) -> tuple[Gen, ...]:
    return tuple(Gen(kind, off if var is None else binding[var] + off)
                 for kind, var, off in pats)


def _rewrite(w: Word, pos: int, rel: Relation, direction: str) -> Optional[Word]:
    """The word after one step of rel at the window starting at pos
    (0-based), or None when the window does not match or the side
    condition fails.  relation_step, applicable_steps, oriented_steps and
    normalize all rewrite through it."""
    src, dst = (rel.left, rel.right) if direction == FORWARD else (rel.right, rel.left)
    binding = _match_side(w.gens, pos, src)
    if binding is None or not rel.cond(binding["i"], binding.get("j")):
        return None
    return Word(w.gens[:pos] + _emit(dst, binding) + w.gens[pos + len(src):])


def relation_step(w: Word, pos: int, rule_id: str, direction: str = FORWARD) -> Word:
    """Apply one relation at a window starting at pos (0-based)."""
    if rule_id not in RELATIONS:
        raise WordError(f"unknown relation {rule_id!r}")
    out = _rewrite(w, pos, RELATIONS[rule_id], direction)
    if out is None:
        raise WordError(f"{rule_id} ({direction}) does not apply at position {pos}")
    return out


def applicable_steps(w: Word) -> list[tuple[int, str, str]]:
    """All (pos, rule_id, direction) triples that relation_step accepts."""
    return [(pos, rule_id, direction)
            for pos in range(len(w.gens))
            for rule_id, rel in RELATIONS.items()
            for direction in (FORWARD, BACKWARD)
            if _rewrite(w, pos, rel, direction) is not None]


# ---------------------------------------------------------------------------
# normalization
#
# Oriented strategy, priority-major then leftmost: (1) expand every
# endpoint substitution into its derivative-integral pair, (2) absorb p1
# before another projection, (3) move projections left, (4) pull
# derivatives leftward across integrals with the index shifts, (5) order
# integral runs by the shuffle rule, (6) sort derivative runs into
# descending order.  Each oriented rule is a table relation in one
# direction; derint.i alone also carries the orientation condition i < j,
# because it holds for every i, j and equal indices would rewrite D_i D_i
# to itself forever.  The derivative moves outrank the integral shuffle:
# the two races on overlapping windows (an integral shared by a shuffle
# redex and a derivative move) otherwise produce distinct irreducible
# words.  ``_rewrite`` finds and builds every step.
# Termination: each stage strictly decreases its own measure
# (substitution count; length; projection inversions; derivative-after-
# integral pairs; ascending integral pairs; ascending derivative pairs)
# and leaves the earlier measures untouched.  Confluence is checked by the
# suite, across random schedules and exhaustively for short words.

_PRIORITY_CLASSES: tuple[tuple[tuple[str, str], ...], ...] = (
    (("leftproj.i", FORWARD),        # q_i -> D_{i+1} I_i
     ("rightproj.i", FORWARD)),      # Q_i -> D_i I_i
    (("coordint.i", BACKWARD),),     # p1 p_i -> p_i
    (("coordint.ii", BACKWARD),      # I_j p_i -> p_i I_j
     ("coordint.iii", BACKWARD)),    # D_j p_i -> p_i D_j
    (("derint.ii", BACKWARD),        # I_j D_i -> D_i I_j       (i < j)
     ("derint.iii", BACKWARD)),      # I_j D_i -> D_{i+1} I_j   (i > j)
    (("intint", FORWARD),),          # I_i I_j -> I_{j+1} I_i   (i < j)
    (("derint.i", FORWARD),),        # D_i D_j -> D_j D_i       (i < j)
)

# the relations as the normalizer orients them
_ORIENTED = {**RELATIONS,
             "derint.i": replace(RELATIONS["derint.i"], cond=lambda i, j: i < j)}

_NORMALIZE_CAP = 200_000


def _oriented_redexes(w: Word) -> Iterator[tuple[int, str, str, Word]]:
    """(pos, rule_id, direction, rewritten word) for every redex of the
    highest priority class that has one, leftmost first."""
    for rules in _PRIORITY_CLASSES:
        found = False
        for pos in range(len(w.gens)):
            for rule_id, direction in rules:
                out = _rewrite(w, pos, _ORIENTED[rule_id], direction)
                if out is not None:
                    found = True
                    yield pos, rule_id, direction, out
        if found:
            return


def oriented_steps(w: Word) -> list[tuple[int, str, str]]:
    """The schedulable steps: all redexes of the highest nonempty priority
    class, except that the integral shuffle is serialized leftmost
    (contraction order of disjoint shuffle redexes is observable through
    later derivative moves).  Any schedule choosing among these reaches
    the same normal form (checked by the confluence suite)."""
    steps = [redex[:3] for redex in _oriented_redexes(w)]
    return steps[:1] if steps and steps[0][1] == "intint" else steps


def normalize(w: Word) -> Word:
    """Canonical form: contract the leftmost redex of the highest
    priority class until none applies."""
    cur = w
    for _ in range(_NORMALIZE_CAP):
        redex = next(_oriented_redexes(cur), None)
        if redex is None:
            return cur
        cur = redex[3]
    raise RuntimeError("normalization exceeded the step cap")  # pragma: no cover


# ---------------------------------------------------------------------------
# signatures


@dataclass(frozen=True)
class Signature:
    dom: Box
    cod_dim: int


def signature_effect(w: Word, sig: Signature) -> Signature:
    """Fold the dom/cod recursion right-to-left over the word."""
    dom, cod = sig.dom, sig.cod_dim
    for g in reversed(w.gens):
        if g.kind is GenKind.INT:
            dom = domint(dom, g.index)
        elif g.kind is GenKind.PART:
            pass
        elif g.kind is GenKind.PROJ:
            cod = 0 if cod == 0 else 1
        else:  # endpoint substitutions, via their derivative-integral form
            dom = domint(dom, g.index)
    return Signature(dom, cod)


# ---------------------------------------------------------------------------
# semantic oracle


@dataclass(frozen=True)
class Equal:
    pass


@dataclass(frozen=True)
class NotEqual:
    witness: PolyFun


@dataclass(frozen=True)
class Unknown:
    pass


# The oracle draws its witnesses from its own dense distribution, not from
# the catalogue's sparse relations.rand_polyfun: over all 88,410 pairs of
# words of length <= 2 with indices <= 4, witnesses from the catalogue's
# generator left 1,067 pairs Unknown instead of 959 and raised the median
# word_eq time from 0.26 to 0.31 ms.
_ORACLE_VARS = 3
_ORACLE_DEG = 4
_ORACLE_CODS = (1, 1, 2)


def _random_polyfun(rng: random.Random) -> PolyFun:
    m = rng.randint(1, _ORACLE_VARS)
    n = rng.choice(_ORACLE_CODS)
    comps = []
    for _ in range(n):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            k = tuple(rng.randint(0, _ORACLE_DEG) for _ in range(m))
            if sum(k) > _ORACLE_DEG:
                k = tuple(e % 2 for e in k)
            num = rng.randint(-3, 3)
            den = rng.choice((1, 2))
            terms[k] = terms.get(k, Fraction(0)) + Fraction(num, den)
        comps.append(Poly.make(m, terms))
    return PolyFun.make(Box.full(m), comps)


def word_eq(w1: Word, w2: Word, trials: int = 12, seed: int = 0,
            orientation: Orientation = Orientation.UPPER):
    """Decide equality: identical normal forms, else a semantic battery.

    Any exact disagreement on a random polynomial refutes equality;
    agreement on every trial with distinct normal forms is honest Unknown
    (the relation table is sound but not complete for the smooth action).
    """
    if trials < 1:
        raise WordError(f"trials must be >= 1, got {trials}")
    if normalize(w1) == normalize(w2):
        return Equal()
    rng = random.Random(seed)
    for _ in range(trials):
        f = _random_polyfun(rng)
        a = apply_word(w1, f, orientation)
        b = apply_word(w2, f, orientation)
        if a != b:
            return NotEqual(witness=f)
    return Unknown()


def _relation_sides(rule_id: str, i: int, j: Optional[int]) -> tuple[Word, Word]:
    """Both sides of one relation instance."""
    rel = RELATIONS[rule_id]
    if rel.uses_j and j is None:
        raise WordError(f"{rule_id} needs j")
    if not rel.cond(i, j):
        raise WordError(f"side condition fails for {rule_id} with i={i}, j={j}")
    binding = {"i": i} if j is None else {"i": i, "j": j}
    return Word(_emit(rel.left, binding)), Word(_emit(rel.right, binding))


def relation_holds_on(rule_id: str, i: int, j: Optional[int], f: PolyFun,
                      orientation: Orientation = Orientation.UPPER) -> bool:
    """Check one relation instance semantically on a single function."""
    lhs, rhs = _relation_sides(rule_id, i, j)
    return apply_word(lhs, f, orientation) == apply_word(rhs, f, orientation)


def relation_instances(max_index: int = 4) -> Iterable[tuple[str, int, Optional[int]]]:
    """All relation instances with indices bounded by max_index."""
    indices = range(1, max_index + 1)
    for rule_id, rel in RELATIONS.items():
        for i, j in itertools.product(indices, indices if rel.uses_j else (None,)):
            if rel.cond(i, j):
                yield rule_id, i, j
