"""Random words, pairs and rewrite walks for the words workload, built
from the benchmark's own copy of the paper's relation table (the program
is never called here).

A word is a list of (kind, index) pairs over the kinds I, D, p, q, Q.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

Word = list[tuple[str, int]]
KINDS = "IDpqQ"


def _side(text: str) -> tuple[tuple[str, str, int], ...]:
    """'Ij+1 Ii' -> (('I', 'j', 1), ('I', 'i', 0)); 'p1' fixes the index."""
    out = []
    for tok in text.split():
        kind, var = tok[0], tok[1:]
        name, _, off = var.partition("+")
        out.append((kind, name, int(off or 0)))
    return tuple(out)


# (rule id, left side, right side, side condition on i and j)
TABLE: list[tuple[str, tuple, tuple, Callable[[int, Optional[int]], bool]]] = [
    (rid, _side(lhs), _side(rhs), cond) for rid, lhs, rhs, cond in [
        ("intint", "Ii Ij", "Ij+1 Ii", lambda i, j: i < j),
        ("derint.i", "Di Dj", "Dj Di", lambda i, j: True),
        ("derint.ii", "Di Ij", "Ij Di", lambda i, j: i < j),
        ("derint.iii", "Di+1 Ij", "Ij Di", lambda i, j: i > j),
        ("coordint.i", "pi", "p1 pi", lambda i, j: True),
        ("coordint.ii", "pi Ij", "Ij pi", lambda i, j: True),
        ("coordint.iii", "pi Dj", "Dj pi", lambda i, j: True),
        ("leftproj.i", "qi", "Di+1 Ii", lambda i, j: True),
        ("leftproj.ii", "qi qj", "qj+1 qi", lambda i, j: i <= j),
        ("leftproj.iii", "qi Ij", "Ij+1 qi", lambda i, j: i < j),
        ("leftproj.iv", "qi+1 Ij", "Ij qi", lambda i, j: i >= j + 1),
        ("leftproj.v", "qi Dj", "Dj+1 qi", lambda i, j: i <= j),
        ("leftproj.vi", "qi Dj", "Dj qi", lambda i, j: i > j),
        ("leftproj.vii", "qi pj", "pj qi", lambda i, j: True),
        ("rightproj.i", "Qi", "Di Ii", lambda i, j: True),
        ("rightproj.ii", "Qi Qj", "Qj+1 Qi", lambda i, j: i <= j),
        ("rightproj.iii", "Qi Ij", "Ij+1 Qi", lambda i, j: i < j),
        ("rightproj.iv", "Qi+1 Ij", "Ij Qi", lambda i, j: i >= j + 1),
        ("rightproj.v", "Qi Dj", "Dj+1 Qi", lambda i, j: i < j),
        ("rightproj.vi", "Qi Dj", "Dj Qi", lambda i, j: i >= j),
        ("rightproj.vii", "Qi pj", "pj Qi", lambda i, j: True),
        ("leftrightinter.i", "Qi qj", "qj+1 Qi", lambda i, j: i < j),
        ("leftrightinter.ii", "Qi+1 qj", "qj Qi", lambda i, j: i + 1 > j),
    ]
]


def _match(word: Word, pos: int, side) -> Optional[dict]:
    if pos + len(side) > len(word):
        return None
    binding: dict[str, int] = {}
    for (kind, idx), (pk, var, off) in zip(word[pos:pos + len(side)], side):
        if kind != pk:
            return None
        if var.isdigit():
            if idx != int(var):
                return None
            continue
        val = idx - off
        if val < 1 or binding.setdefault(var, val) != val:
            return None
    return binding


def _emit(side, binding: dict) -> Word:
    return [(kind, int(var) if var.isdigit() else binding[var] + off)
            for kind, var, off in side]


def steps(word: Word) -> list[tuple[int, str, Word]]:
    """Every single rewrite (either direction) of the table at every
    position, as (pos, rule id, result)."""
    out = []
    for pos in range(len(word)):
        for rid, lhs, rhs, cond in TABLE:
            for src, dst in ((lhs, rhs), (rhs, lhs)):
                b = _match(word, pos, src)
                if b is None or not cond(b.get("i", 1), b.get("j")):
                    continue
                out.append((pos, rid, word[:pos] + _emit(dst, b) + word[pos + len(src):]))
    return out


def random_word(rng: random.Random, length: int, max_index: int = 5) -> Word:
    return [(rng.choice(KINDS), rng.randint(1, max_index)) for _ in range(length)]


def balanced_word(rng: random.Random, length: int, max_index: int = 5) -> Word:
    """A random word in which each kind occurs equally often, as near as
    the length allows; this halves the spread of normalization cost
    between words of one length."""
    kinds = list((KINDS * length)[:length])
    rng.shuffle(kinds)
    return [(k, rng.randint(1, max_index)) for k in kinds]


def walk(rng: random.Random, start: Word, n_steps: int) -> tuple[Word, list[str]]:
    """A random rewrite walk; returns the end word and the rules used."""
    cur, used = start, []
    for _ in range(n_steps):
        options = steps(cur)
        if not options:
            break
        _, rid, cur = rng.choice(options)
        used.append(rid)
    return cur, used


def text(word: Word) -> str:
    return " ".join(f"{k}{i}" for k, i in word) if word else "1"
