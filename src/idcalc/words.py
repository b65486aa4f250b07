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

import random
import re
from dataclasses import dataclass, replace
from functools import lru_cache
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence

from .boxes import Box, Cursor, IdcalcError
from .polynomials import GenKind, Poly, PolyFun, apply_word


class WordError(IdcalcError):
    pass


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
# one int list of packed letters, index << 3 | kind code, ending in the
# sentinel letter _END (kind code _END, index 0); the packing needs no
# bound on the index.  The window at a position is the pair of letters
# there and at the next position, so the last window pairs the last letter
# with the sentinel.  A matcher checks the kind and the index of every
# letter of its window and then the side condition, so it alone decides
# whether its rule applies there.

_KINDS = tuple(GenKind)
_CODE = {kind: code for code, kind in enumerate(_KINDS)}
_END = len(_KINDS)
_KIND = 7  # the kind code bits of a packed letter

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

    def bind(self, letters: Sequence[int], pos: int) -> Optional[dict]:
        """The rule variables at the window of packed letters starting at
        pos, or None when a kind, an index or the side condition does not
        fit."""
        binding: dict[str, int] = {}
        for k, (code, var, off) in enumerate(self.src):
            if letters[pos + k] & _KIND != code:
                return None
            val = (letters[pos + k] >> 3) - off
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


def _packed(w: Word) -> list[int]:
    """The packed letters of w, then the sentinel letter."""
    return [g.index << 3 | _CODE[g.kind] for g in w.gens] + [_END]


_MATCHERS: dict[tuple[str, str], _Matcher] = {
    (m.rule_id, m.direction): m for fwd in RELATIONS.values()
    for m in (fwd, replace(fwd, direction=BACKWARD, src=fwd.dst, dst=fwd.src))}


def relation_step(w: Word, pos: int, rule_id: str, direction: str) -> Word:
    """Apply one relation at a window starting at pos (0-based)."""
    if rule_id not in RELATIONS:
        raise WordError(f"unknown relation {rule_id!r}")
    if direction not in (FORWARD, BACKWARD):
        raise WordError(f"unknown direction {direction!r}")
    m = _MATCHERS[rule_id, direction]
    binding = m.bind(_packed(w), pos) if 0 <= pos < len(w.gens) else None
    if binding is None:
        raise WordError(f"{rule_id} ({direction}) does not apply at position {pos}")
    return Word(w.gens[:pos] + _emit(m.dst, binding) + w.gens[pos + len(m.src):])


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
# words.
#
# The normalizer runs in two phases.  Stages (1)-(3) fire before any
# later step, and no later step makes a redex of theirs: those steps
# rewrite only derivative and integral windows right of the gathered
# projections.  So one pass over the letters (_gather) takes the steps of
# stages (1)-(3) in the strategy's order: every substitution expanded,
# from left to right; then every p1 that directly precedes a projection
# absorbed, from left to right; then each remaining projection moved, in
# order, left across the derivatives and integrals before it, one step
# per letter, absorbing the gathered block's last p1 when it arrives.
# These are the only steps that change the length (q/Q expansion +1, p1
# absorption -1), and they count toward the step cap like the engine's.
#
# The engine then contracts the leftmost redex of the highest class among
# the letters after the projections, without rescanning them.  It keeps,
# per class, a bitmask of the window positions that hold a redex of the
# class; the lowest set bit of the first nonzero mask is the next step.
# A step rewrites the letters from pos up to pos + len(dst) and keeps the
# length, so only the windows starting at pos - 1 up to pos + len(dst) - 1
# are read again: their bits are cleared in the masks that hold any, from
# the step's class on (no earlier class has a bit), and the windows to
# their right keep their letters and their bits.  The engine's letters
# are derivatives and integrals alone, and its rules need different kind
# pairs or have disjoint side conditions, so a window holds at most one
# engine redex.  It depends only on the window's two packed letters, and
# words show few distinct windows, so the process reads each distinct
# window once into a record, kept in one bounded table that every call
# shares.  The record holds the redex's class, the step's (rule_id,
# direction) and its packed replacement letters, which the step splices
# in without matching again.
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

_NORMALIZE_CAP = 200_000

# _gather takes the first three classes, the strategy's stages (1)-(3),
# from the oriented table: per source kind, the substitution's expansion
# and its letters' (index offset, kind code); the absorption of p1; per
# kind a projection moves across, the move.  The engine takes the rest.
_EXPANSIONS = {_ORIENTED[rule].src[0][0]: (rule, [(off, code) for code, _, off in _ORIENTED[rule].dst])
               for rule in _PRIORITY_CLASSES[0]}
(_ABSORPTION,) = _PRIORITY_CLASSES[1]
_MOVES = {_ORIENTED[rule].src[0][0]: rule for rule in _PRIORITY_CLASSES[2]}
_ENGINE_CLASSES = range(3, len(_PRIORITY_CLASSES))
# per pair of kind codes, the (class, oriented matcher) pairs of the engine
# whose source kinds open a window of those kinds
_WINDOWS = {(a, b): tuple((c, m) for c in _ENGINE_CLASSES
                          for m in map(_ORIENTED.get, _PRIORITY_CLASSES[c])
                          if [code for code, _, _ in m.src] == [a, b][:len(m.src)])
            for a in range(_END) for b in range(_END + 1)}
_PROJ = _CODE[GenKind.PROJ]
_P1 = 1 << 3 | _PROJ


def _gather(letters: list[int]) -> tuple[list[int], list[int], list[tuple[int, str, str]]]:
    """Stages (1)-(3) on the packed letters of a word (closed by the
    sentinel), in one pass: the gathered projections, the derivatives and
    integrals after them, and the steps that reach that word, each the
    strategy's first step on the word before it."""
    expand, absorb, move = [], [], []
    block, tail = [], []
    for k in range(len(letters) - 1):
        a = letters[k]
        kind = a & _KIND
        if kind in _MOVES:
            tail.append(a)
        elif kind != _PROJ:
            step, dst = _EXPANSIONS[kind]
            expand.append((k + len(expand),) + step)
            tail += [((a >> 3) + off) << 3 | code for off, code in dst]
        elif a == _P1 and letters[k + 1] & _KIND == _PROJ:
            absorb.append((k + len(expand) - len(absorb),) + _ABSORPTION)
        else:
            base = len(block)
            move += [(base + t,) + _MOVES[tail[t] & _KIND] for t in range(len(tail) - 1, -1, -1)]
            # only a projection that moved can meet a p1 (the absorptions
            # took every p1 that directly preceded a projection)
            if block and block[-1] == _P1:
                block.pop()
                move.append((base - 1,) + _ABSORPTION)
            block.append(a)
            if len(move) > _NORMALIZE_CAP:  # past the cap: the rest is not needed
                break
    steps = expand + absorb + move
    if len(steps) > _NORMALIZE_CAP:
        raise WordError(f"normalization exceeded the step cap of {_NORMALIZE_CAP}")
    return block, tail, steps


_Record = tuple[int, tuple[str, str], tuple[int, ...]]


@lru_cache(maxsize=4096)
def _read_window(a: int, b: int) -> Optional[_Record]:
    """The engine's redex at the window of the packed letters a and b, or
    None: its class, the step's (rule_id, direction), and the packed
    letters that replace the source.  Every call in the process shares the
    records, so they are tuples; the cache keeps the 4,096 most recently
    read."""
    window = (a, b)
    for c, m in _WINDOWS[a & _KIND, b & _KIND]:
        binding = m.bind(window, 0)
        if binding is not None:
            dst = tuple([(off if var is None else binding[var] + off) << 3 | code
                         for code, var, off in m.dst])
            return c, (m.rule_id, m.direction), dst
    return None


def _normalize_steps(w: Word) -> tuple[Word, list[tuple[int, str, str]]]:
    """The normal form of w and the (pos, rule_id, direction) steps that
    reach it; each step is the strategy's first step on the word before it."""
    block, letters, steps = _gather(_packed(w))
    lo = len(block)  # the engine's window k is the word's window lo + k
    letters.append(_END)
    masks = [0] * len(_PRIORITY_CLASSES)
    start, stop = 0, len(letters) - 1  # the windows to read
    while True:
        for k in range(start, stop):
            record = _read_window(letters[k], letters[k + 1])
            if record is not None:
                masks[record[0]] |= 1 << k
        for c in _ENGINE_CLASSES:
            mask = masks[c]
            if mask:
                break
        else:
            return Word(tuple([Gen(_KINDS[a & _KIND], a >> 3) for a in block + letters[:-1]])), steps
        if len(steps) == _NORMALIZE_CAP:
            raise WordError(f"normalization exceeded the step cap of {_NORMALIZE_CAP}")
        pos = (mask & -mask).bit_length() - 1
        _, step, dst = _read_window(letters[pos], letters[pos + 1])
        stop = pos + len(dst)
        letters[pos:stop] = dst
        steps.append((lo + pos,) + step)
        start = pos - 1 if pos else 0
        keep = ~((1 << stop) - (1 << start))  # clear the windows to read again
        for k in range(c, len(masks)):
            if masks[k]:
                masks[k] &= keep


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


_TRIALS = 12  # word_eq's default, and the witnesses kept per seed


@lru_cache(maxsize=16)
def _kept_witnesses(seed: int) -> tuple[tuple[PolyFun, ...], tuple]:
    rng = random.Random(seed)
    return tuple(_random_polyfun(rng) for _ in range(_TRIALS)), rng.getstate()


def _witnesses(seed: int) -> Iterator[PolyFun]:
    """What random.Random(seed) draws: the kept witnesses, then fresh ones
    from the generator state after them."""
    kept, state = _kept_witnesses(seed)
    yield from kept
    rng = random.Random()
    rng.setstate(state)
    while True:
        yield _random_polyfun(rng)


def word_eq(w1: Word, w2: Word, trials: int = _TRIALS, seed: int = 0):
    """Decide equality: identical normal forms, else a semantic battery.

    Any exact disagreement on a random polynomial refutes equality;
    agreement on every trial with distinct normal forms is honest Unknown
    (the relation table is sound but not complete for the smooth action).
    The process keeps each recent seed's first 12 witnesses (the default
    trials) and draws any further ones afresh.  Each witness meets the
    words' common suffix, the letters that act first, once.
    """
    if trials < 1:
        raise WordError(f"trials must be >= 1, got {trials}")
    if normalize(w1) == normalize(w2):
        return Equal()
    k1, k2 = len(w1.gens), len(w2.gens)
    while k1 and k2 and w1.gens[k1 - 1] == w2.gens[k2 - 1]:
        k1, k2 = k1 - 1, k2 - 1
    suffix, head1, head2 = Word(w1.gens[k1:]), Word(w1.gens[:k1]), Word(w2.gens[:k2])
    for _, f in zip(range(trials), _witnesses(seed)):
        g = apply_word(suffix, f)
        if apply_word(head1, g) != apply_word(head2, g):
            return NotEqual(witness=f)
    return Unknown()
