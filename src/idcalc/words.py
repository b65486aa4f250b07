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
import random
import re
from dataclasses import dataclass, replace
from functools import cached_property
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .boxes import Box, Cursor, IdcalcError
from .polynomials import Poly, PolyFun, apply_word


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
        # perfbench/spans.py tags every traced normalize span with len(word);
        # tests/test_tracer_targets.py runs that path
        return len(self.gens)

    def is_integral(self) -> bool:
        """True when no partial-derivative generator occurs."""
        return all(g.kind is not GenKind.PART for g in self.gens)

    def __str__(self) -> str:
        return " ".join(str(g) for g in self.gens) if self.gens else "1"


# a generator token runs to whitespace or a bracket, so a term's `]` ends a
# word; the match takes the whitespace after the token too
_GEN = re.compile(r"([^\s()<>\[\]{}]+)\s*")
_KINDS_BY_LETTER = {k.value: k for k in GenKind}


def read_word(cur: Cursor) -> Word:
    """Generators up to a bracket or the end of the text; `1` alone is the
    empty word."""
    gens = []
    while tok := _GEN.match(cur.text, cur.pos):
        t, at, cur.pos = tok[1], tok.start(), tok.end()
        if t == "1" and not gens and not _GEN.match(cur.text, cur.pos):
            break
        if t[0] not in _KINDS_BY_LETTER:
            raise cur.fail(f"bad generator token {t!r}", at)
        if not (t[1:].isascii() and t[1:].isdigit()):
            raise cur.fail(f"bad generator index in {t!r}", at)
        index = cur.index(t[1:], at, "generator index")
        gens.append(cur.build(at, Gen, _KINDS_BY_LETTER[t[0]], index))
    return Word(tuple(gens))


def parse_word(text: str) -> Word:
    return Cursor(text, "word text", WordError).whole(read_word, "bad generator token {}")


# ---------------------------------------------------------------------------
# the relation table
#
# Each relation is a two-sided rule between one- or two-generator windows,
# held as the matcher of its forward direction; the backward matcher swaps
# the sides.  The table writes a side as a list of (kind, var, offset), and
# _rel stores each kind as its code (its position in GenKind): the matched
# generator index must equal var + offset, where var is one of the rule
# variables i, j, or None for the fixed index offset.  Every side names i,
# and every side of a rule that uses j names j.  Matchers read a word as
# two int lists, its kind codes and its indices, each ending in one
# sentinel letter of kind code _END.  The window at a position is the pair
# of kind codes there and at the next position, so the last window pairs
# the last letter with the sentinel.  A table holds, per window, only the
# matchers whose source kinds it has, so a matcher checks indices and the
# side condition alone.

_KINDS = tuple(GenKind)
_CODE = {kind: code for code, kind in enumerate(_KINDS)}
_END = len(_KINDS)

FORWARD = "forward"
BACKWARD = "backward"

_Pat = tuple[int, Optional[str], int]


@dataclass(frozen=True)
class _Matcher:
    rule_id: str
    direction: str
    src: tuple[_Pat, ...]
    dst: tuple[_Pat, ...]
    cond: Callable[[int, Optional[int]], bool]
    priority: Optional[int] = None  # the normalizer's class of the rule

    @cached_property
    def dst_codes(self) -> tuple[int, ...]:
        return tuple(code for code, _, _ in self.dst)

    def bind(self, idx: Sequence[int], pos: int) -> Optional[dict]:
        """The rule variables at the window starting at pos, whose kinds
        are the source kinds, or None when an index or the side condition
        does not fit."""
        binding: dict[str, int] = {}
        for k, (_, var, off) in enumerate(self.src):
            val = idx[pos + k] - off
            if var is None:
                if val != 0:
                    return None
            elif val < 1 or binding.setdefault(var, val) != val:
                return None
        return binding if self.cond(binding["i"], binding.get("j")) else None


def _rel(rule_id, left, right, cond=lambda i, j: True):
    def coded(pats):
        return tuple((_CODE[kind], var, off) for kind, var, off in pats)
    return _Matcher(rule_id, FORWARD, coded(left), coded(right), cond)


K = GenKind

RELATIONS: dict[str, _Matcher] = {r.rule_id: r for r in [
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


def _emit(pats: Sequence[_Pat], binding: dict) -> tuple[Gen, ...]:
    return tuple(Gen(_KINDS[code], off if var is None else binding[var] + off)
                 for code, var, off in pats)


def _letters(w: Word) -> tuple[list[int], list[int]]:
    """The kind codes and the indices of w, then the sentinel letter."""
    return [_CODE[g.kind] for g in w.gens] + [_END], [g.index for g in w.gens] + [0]


def _window(codes: Sequence[int], pos: int) -> int:
    """The table row of the window starting at pos."""
    return codes[pos] * (_END + 1) + codes[pos + 1]


def _window_table(matchers: Sequence[_Matcher]) -> tuple[tuple[_Matcher, ...], ...]:
    """Per window, the matchers it can match, in input order."""
    kinds = [tuple(code for code, _, _ in m.src) for m in matchers]
    return tuple(tuple(m for m, src in zip(matchers, kinds) if src in ((a,), (a, b)))
                 for a in range(_END) for b in range(_END + 1))


_MATCHERS: dict[tuple[str, str], _Matcher] = {
    (m.rule_id, m.direction): m for fwd in RELATIONS.values()
    for m in (fwd, replace(fwd, direction=BACKWARD, src=fwd.dst, dst=fwd.src))}

_STEP_TABLE = _window_table(list(_MATCHERS.values()))


def relation_step(w: Word, pos: int, rule_id: str, direction: str) -> Word:
    """Apply one relation at a window starting at pos (0-based)."""
    if rule_id not in RELATIONS:
        raise WordError(f"unknown relation {rule_id!r}")
    if direction not in (FORWARD, BACKWARD):
        raise WordError(f"unknown direction {direction!r}")
    m = _MATCHERS[rule_id, direction]
    codes, idx = _letters(w)
    end = pos + len(m.src)
    fits = 0 <= pos and codes[pos:end] == [code for code, _, _ in m.src]
    binding = m.bind(idx, pos) if fits else None
    if binding is None:
        raise WordError(f"{rule_id} ({direction}) does not apply at position {pos}")
    return Word(w.gens[:pos] + _emit(m.dst, binding) + w.gens[end:])


def applicable_steps(w: Word) -> list[tuple[int, str, str]]:
    """All (pos, rule_id, direction) triples that relation_step accepts."""
    codes, idx = _letters(w)
    return [(pos, m.rule_id, m.direction)
            for pos in range(len(w.gens))
            for m in _STEP_TABLE[_window(codes, pos)]
            if m.bind(idx, pos) is not None]


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
# words.  Each class has at most one redex per window: the rules within a
# class need different kinds or disjoint side conditions.
#
# The normalizer contracts the leftmost redex of the highest class at
# every step without rescanning the word.  It keeps, per class, a bitmask
# of the window positions that hold a redex of the class; the lowest set
# bit of the first nonzero mask is the next step.  A step rewrites the
# letters from pos up to pos + len(dst), so only the windows starting at
# pos - 1 up to pos + len(dst) - 1 are read again.  The windows to their
# right keep their letters; when the step changes the length (q/Q
# expansion +1, p1 absorption -1), their bits shift by the difference.
# A window's redexes depend only on its two letters, and a long word
# shows few distinct windows, so one call reads each distinct window once:
# its record maps each class with a redex there to the matcher and the
# ready rewrite, which the step then splices in without matching again.
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

# the matchers as the normalizer orients them
_ORIENTED = {**_MATCHERS,
             ("derint.i", FORWARD): replace(RELATIONS["derint.i"], cond=lambda i, j: i < j)}

# the oriented rules, in priority then class order
_CLASS_TABLE = _window_table([replace(_ORIENTED[rule], priority=c)
                              for c, rules in enumerate(_PRIORITY_CLASSES) for rule in rules])

_NORMALIZE_CAP = 200_000


_Record = dict[int, tuple[_Matcher, list[int]]]


def _read_window(codes: Sequence[int], idx: Sequence[int], pos: int) -> _Record:
    """Per priority class with a redex at the window starting at pos, in
    class order: its matcher, and the indices of the letters (of kinds
    m.dst_codes) that replace the window's source letters."""
    record: _Record = {}
    for m in _CLASS_TABLE[_window(codes, pos)]:
        binding = m.bind(idx, pos)
        if binding is not None:
            record[m.priority] = (m, [off if var is None else binding[var] + off
                                      for _, var, off in m.dst])
    return record


def oriented_steps(w: Word) -> list[tuple[int, str, str]]:
    """The schedulable steps: all redexes of the highest nonempty priority
    class, except that the integral shuffle is serialized leftmost
    (contraction order of disjoint shuffle redexes is observable through
    later derivative moves).  Any schedule choosing among these reaches
    the same normal form (checked by the confluence suite)."""
    codes, idx = _letters(w)
    found: list[list[tuple[int, str, str]]] = [[] for _ in _PRIORITY_CLASSES]
    for pos in range(len(w.gens)):
        for c, (m, _) in _read_window(codes, idx, pos).items():
            found[c].append((pos, m.rule_id, m.direction))
    steps = next((steps for steps in found if steps), [])
    return steps[:1] if steps and steps[0][1] == "intint" else steps


def _normalize_steps(w: Word) -> tuple[Word, list[tuple[int, str, str]]]:
    """The normal form of w and the (pos, rule_id, direction) steps that
    reach it; each step is oriented_steps(cur)[0] of the word before it."""
    codes, idx = _letters(w)
    records: dict[tuple[int, int, int, int], _Record] = {}
    masks = [0] * len(_PRIORITY_CLASSES)
    steps = []
    start, stop = 0, len(w.gens)  # the windows to read
    while True:
        for k in range(start, stop):
            key = (codes[k], idx[k], codes[k + 1], idx[k + 1])
            rec = records.get(key)
            if rec is None:
                rec = records[key] = _read_window(codes, idx, k)
            for c in rec:
                masks[c] |= 1 << k
        for c, mask in enumerate(masks):
            if mask:
                break
        else:
            return Word(tuple(Gen(_KINDS[k], i) for k, i in zip(codes[:-1], idx))), steps
        if len(steps) == _NORMALIZE_CAP:
            raise WordError(f"normalization exceeded the step cap of {_NORMALIZE_CAP}")
        pos = (mask & -mask).bit_length() - 1
        m, dst_idx = records[codes[pos], idx[pos], codes[pos + 1], idx[pos + 1]][c]
        end, stop = pos + len(m.src), pos + len(dst_idx)
        codes[pos:end] = m.dst_codes
        idx[pos:end] = dst_idx
        steps.append((pos, m.rule_id, m.direction))
        start = max(pos - 1, 0)
        keep = (1 << start) - 1
        masks = [mask & keep | mask >> end << stop for mask in masks]


def normalize(w: Word) -> Word:
    """Canonical form: contract the leftmost redex of the highest
    priority class until none applies."""
    return _normalize_steps(w)[0]


# ---------------------------------------------------------------------------
# signatures


@dataclass(frozen=True)
class Signature:
    dom: Box
    cod_dim: int


def signature_effect(w: Word, sig: Signature) -> Signature:
    """The signature of w's action on functions of signature sig: the
    action itself on the zero function there."""
    f = apply_word(w, PolyFun.zero(sig.dom, sig.cod_dim))
    return Signature(f.domain, f.cod_dim)


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


def word_eq(w1: Word, w2: Word, trials: int = 12, seed: int = 0):
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
        a = apply_word(w1, f)
        b = apply_word(w2, f)
        if a != b:
            return NotEqual(witness=f)
    return Unknown()
