"""Output pins for the constructions built in one place: vanishing spaces
and canonical directions, pre-derivations applied and evaluated, chart
differentials, the outer product, the linear embedding and the generator
action.

Each test hashes the printed outputs over a fixed random set drawn with
the catalogue's own generators (``idcalc.relations``).  The digests were
recorded at commit ced58c3, before these constructions were rewritten onto
the kernel's shared builders, so a pin fails on any change of output.  The
pin of ``apply`` and ``eval_smooth`` was recorded at commit 63c1c64, before
``apply`` summed its derivative in one pass.
"""

import hashlib
import random
from fractions import Fraction

from idcalc.boxes import Box
from idcalc.evaluation import linincl
from idcalc.polynomials import (Orientation, Poly, PolyFun, apply_word, compose,
                                format_polyfun, format_rat, vprod)
from idcalc.prederiv import (GermCore, PreDeriv, apply, canonical_direction,
                             chart_differential, eval_smooth, format_prederiv, vanishing_space)
from idcalc.relations import (rand_box, rand_box_around_zero, rand_coeff, rand_polyfun,
                              rand_word)
from idcalc.terms import Opaque, format_term
from idcalc.words import Gen, GenKind, Word


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _vec(v):
    return "(" + ", ".join(format_rat(c) for c in v) + ")"


def _pointed(f):
    """f with its constant terms removed, so that it vanishes at 0."""
    return PolyFun.make(f.domain, [Poly.make(f.arity, {k: c for k, c in p.terms if any(k)})
                                   for p in f.components])


def _direction(rng, l):
    return [rand_coeff(rng) if rng.random() < 0.8 else Fraction(0) for _ in range(l)]


def _core(rng, i):
    """Core i of the pinned set: every fourth one is of arity 0, every
    fourth one factors through a linear map onto fewer coordinates, the
    rest are the catalogue's polynomial draw, pointed."""
    kind = i % 4
    if kind == 0:
        return _pointed(rand_polyfun(rng, Box.point(), rng.randint(0, 2)))
    if kind == 1:
        l = rng.randint(2, 4)
        k = rng.randint(1, l - 1)
        linear = _pointed(rand_polyfun(rng, rand_box_around_zero(rng, l), k, 1))
        outer = _pointed(rand_polyfun(rng, Box.full(k), rng.randint(1, 3)))
        return compose(outer, linear)
    l = rng.randint(1, 4)
    return _pointed(rand_polyfun(rng, rand_box_around_zero(rng, l), rng.randint(1, 3),
                                 rng.choice((1, 2, 3))))


def test_vanishing_space_and_canonical_direction_are_pinned():
    rng = random.Random(15)
    lines = []
    for i in range(320):
        z = GermCore(_core(rng, i))
        lines.append(";".join(_vec(v) for v in vanishing_space(z)))
        lines.append(_vec(canonical_direction(z, _direction(rng, z.source_dim))))
    assert _digest(lines) == \
        "dff7dca4f47ee0815d7648d6066753336250beda177950e198103ac8a643c8d1"


def _germ_summand(rng, l, m, partial):
    z = _pointed(rand_polyfun(rng, rand_box_around_zero(rng, l), m, rng.choice((1, 2, 3))))
    return PreDeriv.of(GermCore(PolyFun.make(z.domain, z.components, partial)),
                       _direction(rng, l))


def test_apply_and_eval_smooth_are_pinned():
    """Pre-derivations of one summand and of two, of equal source arity and
    of different, with zero entries in u; u = 0; partial cores and partial
    functions.  Every germ ``apply`` returns, with its flag, and the
    smooth evaluation."""
    rng = random.Random(20)
    lines = []
    for i in range(200):
        kind, m = i % 5, rng.randint(1, 3)
        l = rng.randint(0, 3)
        dv = _germ_summand(rng, l, m, partial=kind == 3 or rng.random() < 0.3)
        if kind == 1:  # equal source arity
            dv = dv + _germ_summand(rng, l, m, partial=rng.random() < 0.3)
        elif kind == 2:  # different source arity
            dv = dv + _germ_summand(rng, (l + rng.randint(1, 3)) % 4, m,
                                    partial=rng.random() < 0.3)
        elif kind == 3:  # u = 0 on a partial core
            (core, u), = dv.summands
            dv = PreDeriv.of(core, [0] * len(u))
        w = rand_polyfun(rng, rand_box_around_zero(rng, m), 1, 2)
        if kind == 4:
            w = PolyFun.make(w.domain, w.components, partial=True)
        lines.extend(_flagged(g) for g in apply(dv, w))
        lines.append(_vec(eval_smooth(dv)))
    assert _digest(lines) == \
        "2b65d377a37f7f97f06ca1c0a38f3294a286dd57b60ad32c29083dee9fd9aed5"


def _interior_point(rng, box):
    point = []
    for r in box.factors:
        if r.lo is not None and r.hi is not None:
            point.append((r.lo + r.hi) / 2)
        elif r.lo is not None:
            point.append(r.lo + rng.randint(1, 3))
        elif r.hi is not None:
            point.append(r.hi - rng.randint(1, 3))
        else:
            point.append(Fraction(rng.randint(-3, 3)))
    return point


def test_chart_differential_is_pinned():
    rng = random.Random(16)
    lines = []
    for _ in range(60):
        m = rng.randint(1, 3)
        f = rand_polyfun(rng, rand_box(rng, m), rng.randint(1, 3), rng.choice((1, 2, 3)))
        dv = PreDeriv(m)
        for _ in range(rng.randint(1, 2)):
            l = rng.randint(1, 3)
            z = _pointed(rand_polyfun(rng, rand_box_around_zero(rng, l), m, 2))
            dv = dv + PreDeriv.of(GermCore(z), _direction(rng, l))
        out = chart_differential(f, dv, _interior_point(rng, f.domain))
        lines.append(format_prederiv(out))
    assert _digest(lines) == \
        "3cf2bdd80fa7ea09326542039b1629010988aaca938689bf65cb5803daa35970"


def _flagged(f):
    return format_polyfun(f) + (" partial" if f.is_partial else "")


def test_vprod_is_pinned():
    rng = random.Random(17)
    lines = []
    for i in range(240):
        dom = rand_box(rng, rng.randint(0, 2))
        f = rand_polyfun(rng, dom, rng.randint(0, 3))
        g = rand_polyfun(rng, dom, rng.randint(0, 3))
        if i % 3 == 0:  # a flagged side propagates
            f = PolyFun.make(dom, f.components, partial=True)
        lines.append(_flagged(vprod(f, g)))
    assert _digest(lines) == \
        "f741c1934d9b95472ac4de96d26b1531efb3f398f86a7d9f6c60453db4c137ee"


def test_linincl_is_pinned():
    rng = random.Random(18)
    lines = []
    names = 0
    for _ in range(220):
        dom = rand_box(rng, rng.randint(1, 3))
        combos = []
        for _ in range(rng.randint(1, 3)):
            coeffs, bases = [], []
            for _ in range(rng.randint(1, 3)):
                coeffs.append(rand_coeff(rng))
                if rng.random() < 0.5:
                    names += 1
                    bases.append(Opaque(f"c{names}", dom))
                else:
                    bases.append(rand_polyfun(rng, dom, 1))
            combos.append((coeffs, bases))
        lines.append(format_term(linincl(combos)))
    assert _digest(lines) == \
        "03dacaa8e62a72aecca2c50e47de92e78ab603b5d1ebdf83a9a56f66bb59be88"


def test_apply_word_is_pinned():
    """Every generator kind at indices 1..5, past the arity and the
    codomain included, on functions of arity 0..2 and codomain 0..2 in
    both orientations; then random words."""
    rng = random.Random(19)
    fns = [rand_polyfun(rng, rand_box(rng, m), n) for m in range(3) for n in range(3)]
    fns.append(PolyFun.make(Box.full(1), [Poly.var(1, 1)], partial=True))
    lines = []
    for orientation in Orientation:
        for f in fns:
            for kind in GenKind:
                for i in range(1, 6):
                    lines.append(_flagged(apply_word(Word.of(Gen(kind, i)), f, orientation)))
        for _ in range(120):
            w = rand_word(rng, max_len=4, max_index=4)
            lines.append(_flagged(apply_word(w, rng.choice(fns), orientation)))
    assert _digest(lines) == \
        "7f95d2bc547b50e939619b104a89eb79c23e2570ba70ba183a7807123bcee14d"
