"""Machine verification of the relation catalogue.

Each rule's builder draws one trial from its context alone, ``builder(ctx)``
(twin rules share one: R14/R15 and R16.1/R16.2 take the letter q or Q,
R16.4/R16.5 the second letter I or q): a random instance of the rule's
side conditions (random boxes, indices <= 4, degree <= 3, opaque slots
instantiated through a shared instantiation) as two different terms.  The
runner verifies signature equality plus exact evaluation equality.
Failures are data: the report carries the instantiation and both
evaluated sides.

Compositions run in permissive mode: several rules are identities between
restricted (partial) compositions, and 276 of the 1,968 compositions of
``check_all(20, 0)`` still come out partial: the range guard is exact on
affine components but conservative above degree 1.  A trial evaluates its
sides, and the builders of R17 and R17bis their acted term, through one
memo (``Ctx.evaluate``), and each opaque leaf is entered there with its
polynomial as it is drawn (``Ctx.opaque``).
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .boxes import Box, IdcalcError, Ray1, domint, product
from .evaluation import eval_term, linincl, linincl_of_polyfun
from .polynomials import (Orientation, Poly, PolyFun, _picks, const_fun, coord, diag,
                          format_polyfun, incl, proj_block, proje, switch, vecminus, vecprod,
                          vecsum)
from .terms import (Act, Comp, Opaque, Term, TupleT, _fold, _rebuild, children, format_term,
                    mult_t, scal_t, signature, sum_t)
from .words import D, Gen, GenKind, I, Q, Word, p, q

_SWAP = {GenKind.SUB_HI: Q, GenKind.SUB_LO: q}  # the lower orientation's relabelling

# ---------------------------------------------------------------------------
# random instance material: the one generator for the catalogue and the test
# suite (the word_eq oracle keeps its own draw, see words._random_polyfun)


class Ctx:
    """Per-trial context: rng, orientation, the trial's number, the shared
    instantiation, and the trial's memos of values and of lowered terms."""

    def __init__(self, rng: random.Random, orientation: Orientation, trial: int):
        self.rng = rng
        self.orientation = orientation
        self.trial = trial
        self.inst: dict[str, PolyFun] = {}
        self.memo: dict = {}
        self.lowered: dict = {}

    def evaluate(self, t: Term) -> PolyFun:
        """Evaluate t permissively through the trial's memo; under the lower
        orientation, once t is lowered (``_lower``) through its memo."""
        if self.orientation is Orientation.LOWER:
            t = _fold(t, _lower, children, self.lowered)
        return eval_term(t, True, self.memo)

    def opaque(self, domain: Box) -> Opaque:
        """A fresh opaque leaf on domain and a random scalar polynomial for
        it, kept in the instantiation (for the failure witness) and in the
        memo, where the trial's evaluations read it."""
        leaf = Opaque(f"c{len(self.inst) + 1}", domain)
        fn = self.inst[leaf.name] = rand_polyfun(self.rng, domain, 1)
        self.memo[id(leaf)] = leaf, fn
        return leaf


def _lower(node: Term, kids: list[Term]) -> Term:
    """The node as the upper action reads it under the lower orientation: q and Q
    swap, and an odd word is negated (the one case that folds ``signature``)."""
    node = _rebuild(node, kids)
    if not isinstance(node, Act) or not (subs := sum(g.kind in _SWAP for g in node.word.gens)):
        return node
    gens = tuple(_SWAP[g.kind](g.index) if g.kind in _SWAP else g for g in node.word.gens)
    act = Act(Word(gens), node.body)
    return Comp(vecminus(signature(node).cod_dim), act) if subs % 2 else act


def rand_coeff(rng: random.Random) -> Fraction:
    c = Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
    return c if c else Fraction(1)


def rand_poly(rng: random.Random, arity: int, max_deg: int = 3) -> Poly:
    terms = {}
    for _ in range(rng.randint(1, 3)):
        k = [0] * arity
        for _ in range(rng.randint(0, max_deg)):
            if arity:
                k[rng.randrange(arity)] += 1
        terms[tuple(k)] = rand_coeff(rng)
    return Poly.make(arity, terms)


def rand_box(rng: random.Random, dim: int) -> Box:
    factors = []
    for _ in range(dim):
        kind = rng.randrange(4)
        if kind == 0:
            factors.append(Ray1.full())
        elif kind == 1:
            a = Fraction(rng.randint(-4, 2), rng.choice((1, 2)))
            factors.append(Ray1.bounded(a, a + rng.randint(1, 4)))
        elif kind == 2:
            factors.append(Ray1.above(Fraction(rng.randint(-4, 1))))
        else:
            factors.append(Ray1.below(Fraction(rng.randint(1, 4))))
    return Box(tuple(factors))


def rand_box_around_zero(rng: random.Random, dim: int) -> Box:
    factors = []
    for _ in range(dim):
        a = -Fraction(rng.randint(1, 3), rng.choice((1, 2)))
        b = Fraction(rng.randint(1, 3), rng.choice((1, 2)))
        factors.append(Ray1.bounded(a, b))
    return Box(tuple(factors))


def rand_subbox(rng: random.Random, outer: Box) -> Box:
    """A box whose closure lies strictly inside the outer box.  A missing
    end is clamped to +-8, and at least 1 beyond the finite end."""
    factors = []
    for ray in outer.factors:
        lo, hi = ray.lo, ray.hi
        if hi is None:
            hi = Fraction(8) if lo is None else max(Fraction(8), lo + 1)
        if lo is None:
            lo = min(Fraction(-8), hi - 1)
        width = hi - lo
        a = lo + width / rng.choice((4, 5))
        b = hi - width / rng.choice((4, 5))
        factors.append(Ray1.bounded(a, b))
    return Box(tuple(factors))


def rand_polyfun(rng: random.Random, domain: Box, cod_dim: int, max_deg: int = 3) -> PolyFun:
    return PolyFun.make(domain, [rand_poly(rng, domain.dim, max_deg) for _ in range(cod_dim)])


def rand_slot(ctx: Ctx, domain: Box, cod_dim: int) -> Term:
    """A random term of the requested signature; with some probability it
    carries opaque generators, registered in the shared instantiation."""
    rng = ctx.rng
    if cod_dim == 0:
        return PolyFun.make(domain, [])
    if rng.random() < 0.5:
        return rand_polyfun(rng, domain, cod_dim)
    combos = []
    for _ in range(cod_dim):
        k = rng.randint(1, 2)
        coeffs, bases = [], []
        for _ in range(k):
            coeffs.append(rand_coeff(rng))
            bases.append(ctx.opaque(domain) if rng.random() < 0.5
                         else rand_polyfun(rng, domain, 1))
        combos.append((coeffs, bases))
    return linincl(combos)


def _slot(ctx: Ctx) -> tuple[Term, Box, int]:
    """Draws a box of dimension 1..2, a codomain n in 1..2, then a slot; returns (x, box, n)."""
    rng = ctx.rng
    box = rand_box(rng, rng.randint(1, 2))
    n = rng.randint(1, 2)
    return rand_slot(ctx, box, n), box, n


def _equal_pair(ctx: Ctx) -> tuple[Term, Term]:
    """A slot x and a different term equal to it by an established identity."""
    x, _, n = _slot(ctx)
    if ctx.rng.randrange(2):
        return x, Act(Word(), x)
    return x, Comp(PolyFun.identity(Box.full(n)), x)


def rand_word(rng: random.Random, max_len: int = 2, max_index: int = 3) -> Word:
    kinds = list(GenKind)
    gens = tuple(Gen(rng.choice(kinds), rng.randint(1, max_index))
                 for _ in range(rng.randint(0, max_len)))
    return Word(gens)


# ---------------------------------------------------------------------------
# trial builders: one per catalogued rule, or one per twin pair of rules


Trial = tuple[Term, Term]
Builder = Callable[[Ctx], Trial]
TRIALS = 20  # trials per rule: check_relation's, check_all's and the CLI's default
MAX_TRIALS = 1000  # the most trials per rule check_relation runs


def _t_r5(ctx: Ctx) -> Trial:
    rng = ctx.rng
    groups = []
    for _ in range(rng.randint(2, 3)):
        group = [_slot(ctx)[0] for _ in range(rng.randint(1, 2))]
        groups.append(group)
    lhs = TupleT(tuple(TupleT(tuple(g)) for g in groups))
    rhs = TupleT(tuple(x for g in groups for x in g))
    return lhs, rhs


def _t_r4bis(ctx: Ctx) -> Trial:
    pairs = [_equal_pair(ctx) for _ in range(ctx.rng.randint(1, 3))]
    return TupleT(tuple(a for a, _ in pairs)), TupleT(tuple(b for _, b in pairs))


def _t_s0(ctx: Ctx) -> Trial:
    rng = ctx.rng
    xs, ys = [], []
    for _ in range(rng.randint(1, 2)):
        mi = rng.randint(1, 2)
        y = rand_slot(ctx, rand_box(rng, rng.randint(1, 2)), mi)
        x = rand_slot(ctx, rand_box(rng, mi), rng.randint(1, 2))
        xs.append(x)
        ys.append(y)
    return Comp(TupleT(tuple(xs)), TupleT(tuple(ys))), \
        TupleT(tuple(Comp(a, b) for a, b in zip(xs, ys)))


def _t_r1(ctx: Ctx) -> Trial:
    rng = ctx.rng
    ls = [rng.choice((0, 1, 1, 2)) for _ in range(rng.randint(2, 3))]
    if sum(ls) == 0:
        ls[0] = 1
    dom = rand_box(rng, rng.randint(1, 2))
    x = rand_slot(ctx, dom, sum(ls))
    blocks = [Box.full(l) for l in ls]
    parts = [Comp(proj_block(blocks, i + 1), x) for i in range(len(ls))]
    rhs = Comp(TupleT(tuple(parts)), diag(dom, len(ls)))
    return x, rhs


def _t_r1bis(ctx: Ctx) -> Trial:
    rng = ctx.rng
    u1, u2 = rand_box(rng, rng.randint(1, 2)), rand_box(rng, rng.randint(1, 2))
    n1, n2 = rng.randint(1, 2), rng.randint(1, 2)
    x1 = rand_slot(ctx, u1, n1)
    x2 = rand_polyfun(rng, u2, n2)  # second factor stays in the smooth fragment
    lhs = Comp(proj_block([Box.full(n1), Box.full(n2)], 1), TupleT((x1, x2)))
    rhs = Comp(x1, proj_block([u1, u2], 1))
    return lhs, rhs


def _t_r2(ctx: Ctx) -> Trial:
    x, dom, cod = _slot(ctx)
    n = ctx.rng.randint(2, 3)
    lhs = Comp(TupleT((x,) * n), diag(dom, n))
    rhs = Comp(diag(Box.full(cod), n), x)
    return lhs, rhs


def _t_r3(ctx: Ctx) -> Trial:
    rng = ctx.rng
    u1, u2 = rand_box(rng, rng.randint(1, 2)), rand_box(rng, rng.randint(1, 2))
    n1, n2 = rng.randint(1, 2), rng.randint(1, 2)
    x1, x2 = rand_slot(ctx, u1, n1), rand_slot(ctx, u2, n2)
    lhs = TupleT((x1, x2))
    outer = switch([Box.full(n2), Box.full(n1)], [2, 1])
    inner = switch([u1, u2], [2, 1])
    rhs = Comp(Comp(outer, TupleT((x2, x1))), inner)
    return lhs, rhs


def _t_s3(ctx: Ctx) -> Trial:
    rng = ctx.rng
    a = rand_coeff(rng)
    v = rand_box(rng, rng.randint(1, 2))
    mu = rng.randint(1, 2)
    u = rand_box(rng, mu)
    y = rand_slot(ctx, v, mu)
    n = rng.randint(1, 2)
    x = rand_slot(ctx, u, n)
    return Comp(scal_t(a, x), y), scal_t(a, Comp(x, y))


def _t_r7(ctx: Ctx) -> Trial:
    x, _, n = _slot(ctx)
    return x, Comp(PolyFun.identity(Box.full(n)), x)


def _t_s7bis(ctx: Ctx) -> Trial:
    x, dom, n = _slot(ctx)
    z = rand_slot(ctx, dom, n)
    inner = Comp(vecprod(1, n), TupleT((const_fun(dom, [0]), z)))
    rhs = Comp(Comp(vecsum(n, 2), TupleT((x, inner))), diag(dom, 3))
    return x, rhs


def _t_r7ter(ctx: Ctx) -> Trial:
    x, dom, _ = _slot(ctx)
    return x, Comp(x, incl(dom))


def _t_r7quater(ctx: Ctx) -> Trial:
    rng = ctx.rng
    kdim = rng.randint(1, 2)
    y = rand_polyfun(rng, rand_box(rng, rng.randint(1, 2)), kdim)
    x = rand_slot(ctx, Box.full(kdim), rng.randint(1, 2))
    z = rand_slot(ctx, rand_box(rng, rng.randint(1, 2)), signature(y).dom.dim)
    return Comp(Comp(x, y), z), Comp(x, Comp(y, z))


def _t_r7penta(ctx: Ctx) -> Trial:
    rng = ctx.rng
    kdim = rng.randint(1, 2)
    x = rand_slot(ctx, Box.full(kdim), rng.randint(1, 2))
    vdom = rand_box(rng, rng.randint(1, 2))
    y = rand_slot(ctx, vdom, kdim)
    z = rand_slot(ctx, rand_box(rng, rng.randint(1, 2)), vdom.dim)
    return Comp(Comp(x, y), z), Comp(x, Comp(y, z))


def _t_r9(ctx: Ctx) -> Trial:
    x, _, _ = _slot(ctx)
    return x, Act(Word(), x)


def _t_r9_1(ctx: Ctx) -> Trial:
    rng = ctx.rng
    wm, wn = rand_word(rng), rand_word(rng)
    x, _, _ = _slot(ctx)
    return Act(wm, Act(wn, x)), Act(wm * wn, x)


def _t_r9_2(ctx: Ctx) -> Trial:
    x, y = _equal_pair(ctx)
    w = rand_word(ctx.rng)
    return Act(w, x), Act(w, y)


def _integrated_slot(ctx: Ctx) -> tuple[Term, Box, int, int, int]:
    """Draws m, then i in 1..m, then dom and n, then the slot x on dom."""
    rng = ctx.rng
    m = rng.randint(1, 2)
    i = rng.randint(1, m)
    dom = rand_box(rng, m)
    n = rng.randint(1, 2)
    return rand_slot(ctx, dom, n), dom, m, n, i


def _t_r9_3(ctx: Ctx) -> Trial:
    x, dom, m, _, i = _integrated_slot(ctx)
    dup = _picks(dom, [*range(1, i + 1), i, *range(i + 1, m + 1)])
    return Comp(Act(Word.of(I(i)), x), dup), scal_t(0, x)


def _t_r9bis(ctx: Ctx) -> Trial:
    rng = ctx.rng
    m = rng.randint(1, 2)
    i = rng.randint(1, m)
    w = rand_box(rng, m)
    u = rand_subbox(rng, w)
    x = rand_slot(ctx, w, rng.randint(1, 2))
    lhs = Act(Word.of(I(i)), Comp(x, incl(u)))
    rhs = Comp(Act(Word.of(I(i)), x), incl(domint(u, i)))
    return lhs, rhs


def _t_r9ter(ctx: Ctx) -> Trial:
    rng = ctx.rng
    m1, m2 = rng.randint(1, 2), rng.randint(1, 2)
    i = rng.randint(1, m1)
    u1 = rand_box_around_zero(rng, m1)
    u2 = rand_box_around_zero(rng, m2)
    x = rand_slot(ctx, product([u1, u2]), rng.randint(1, 2))
    pincl = _picks(u1, [*range(1, m1 + 1)] + [0] * m2)
    pincl2 = _picks(domint(u1, i), [*range(1, m1 + 2)] + [0] * m2)
    lhs = Act(Word.of(I(i)), Comp(x, pincl))
    rhs = Comp(Act(Word.of(I(i)), x), pincl2)
    return lhs, rhs


def _slot_tuple(ctx: Ctx, extra: int) -> tuple[list, list, list, list, int]:
    """Draws n in 2..3, n domain and n codomain dimensions, a box and a slot
    per block, then i in 1..L[-1] + extra, L being the block ends; returns
    the boxes, codomains, slots, L and i."""
    rng = ctx.rng
    n = rng.randint(2, 3)
    dims = [rng.randint(1, 2) for _ in range(n)]
    cods = [rng.randint(1, 2) for _ in range(n)]
    doms = [rand_box(rng, d) for d in dims]
    xs = [rand_slot(ctx, dom, cod) for dom, cod in zip(doms, cods)]
    L = [0]
    for d in dims:
        L.append(L[-1] + d)
    return doms, cods, xs, L, rng.randint(1, L[-1] + extra)


def _t_r10(ctx: Ctx) -> Trial:
    doms, _, xs, L, i = _slot_tuple(ctx, 2)  # i covers in-block, between, and beyond
    n = len(xs)
    full_dom = product(doms)
    ext_dom = domint(full_dom, i)
    dim_ext = ext_dom.dim
    lhs = Act(Word.of(I(i)), TupleT(tuple(xs)))

    blocks = []
    for j in range(n):
        if L[j] < i <= L[j + 1]:
            blocks.append(domint(doms[j], i - L[j]))
        else:
            blocks.append(doms[j])
    if i > L[-1]:
        blocks.append(Box.full(i - L[-1] + 1))

    length = PolyFun.make(ext_dom, [Poly.var(dim_ext, i + 1).sub(Poly.var(dim_ext, i))])
    ys = []
    for j in range(n):
        if L[j] < i <= L[j + 1]:
            ys.append(Comp(Act(Word.of(I(i - L[j])), xs[j]), proj_block(blocks, j + 1)))
        else:
            ys.append(mult_t(Comp(xs[j], proj_block(blocks, j + 1)), length))
    rhs = Comp(TupleT(tuple(ys)), diag(ext_dom, n))
    return lhs, rhs


def _t_r10_1(ctx: Ctx) -> Trial:
    x, dom, m, n, i = _integrated_slot(ctx)
    perm = list(range(1, m + 2))
    perm[i - 1], perm[i] = perm[i], perm[i - 1]
    sw = switch([Box.full(1)] * (m + 1), perm)
    lhs = Comp(Act(Word.of(I(i)), x), Comp(sw, incl(domint(dom, i))))
    rhs = Comp(vecminus(n), Act(Word.of(I(i)), x))
    return lhs, rhs


def _t_r10bis(ctx: Ctx) -> Trial:
    rng = ctx.rng
    dom = rand_box(rng, rng.randint(1, 2))
    n = rng.randint(1, 2)
    i = rng.randint(1, 4)
    x1, x2 = rand_slot(ctx, dom, n), rand_slot(ctx, dom, n)
    return Act(Word.of(I(i)), sum_t(x1, x2)), \
        sum_t(Act(Word.of(I(i)), x1), Act(Word.of(I(i)), x2))


def _t_r11(ctx: Ctx) -> Trial:
    _, cods, xs, M, i = _slot_tuple(ctx, 0)
    n = len(xs)
    lhs = Act(Word.of(D(i)), TupleT(tuple(xs)))
    ys = []
    for j in range(n):
        if M[j] < i <= M[j + 1]:
            ys.append(Act(Word.of(D(i - M[j])), xs[j]))
        else:
            zero = const_fun(Box.full(cods[j]), [0] * cods[j])
            ys.append(Comp(zero, xs[j]))
    return lhs, TupleT(tuple(ys))


def _t_r12(ctx: Ctx) -> Trial:
    rng = ctx.rng
    l, m, n = rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 2)
    v = rand_box(rng, l)
    x2 = rand_slot(ctx, v, m)
    x1 = rand_slot(ctx, rand_box(rng, m), n)
    i = rng.randint(1, l + 1)
    lhs = Act(Word.of(D(i)), Comp(x1, x2))
    ys = [mult_t(Comp(Act(Word.of(D(kk)), x1), x2), Act(Word.of(p(kk), D(i)), x2))
          for kk in range(1, m + 1)]
    return lhs, sum_t(*ys)


def _t_r12_1(ctx: Ctx) -> Trial:
    rng = ctx.rng
    dom = rand_box(rng, rng.randint(1, 2))
    n = rng.randint(1, 2)
    i = rng.randint(1, 4)
    x = rand_slot(ctx, dom, n)
    zero = const_fun(Box.full(n), [0] * n)
    return Act(Word.of(D(i)), x), sum_t(Act(Word.of(D(i)), x), Comp(zero, x))


def _t_r13(ctx: Ctx) -> Trial:
    rng = ctx.rng
    dom = rand_box(rng, rng.randint(1, 2))
    n = rng.choice((0, 1, 2, 3))
    i = rng.randint(1, 4)
    x = rand_slot(ctx, dom, n)
    lhs = Act(Word.of(p(i)), x)
    if n == 0:
        rhs: Term = x
    elif i <= n:
        rhs = Comp(coord(n, i), x)
    else:
        rhs = Comp(const_fun(Box.full(n), [0]), x)
    return lhs, rhs


def _indexed_slot(ctx: Ctx, extra: int) -> tuple[Term, Box, int, int, int]:
    """Draws m, dom, n, then i in 1..m + extra, then the slot x on dom."""
    rng = ctx.rng
    m = rng.randint(1, 2)
    dom = rand_box(rng, m)
    n = rng.randint(1, 2)
    i = rng.randint(1, m + extra)
    return rand_slot(ctx, dom, n), dom, m, n, i


def _endpoint_slot(ctx: Ctx, extra: int) -> tuple[Term, Box, int, int, int]:
    """Trial 0 is the canonical witness f(x) = x on R with i = 1, which
    separates the two endpoint orientations; later trials draw at random."""
    if ctx.trial > 0:
        return _indexed_slot(ctx, extra)
    dom = Box.full(1)
    return PolyFun.identity(dom), dom, 1, 1, 1


def _t_r14_r15(ctx: Ctx, sub: Callable[[int], Gen]) -> Trial:
    """R14: q<i> deletes coordinate i; R15: Q<i> negates and deletes i + 1."""
    x, dom, m, n, i = _endpoint_slot(ctx, 2)
    lhs = Act(Word.of(sub(i)), x)
    if sub is Q:
        x = Comp(vecminus(n), x)
    if i <= m:
        rhs = Comp(x, Comp(proje(m, i if sub is q else i + 1), incl(domint(dom, i))))
    else:
        rhs = Comp(x, proj_block([dom, Box.full(i - m + 1)], 1))
    return lhs, rhs


def _t_r16(ctx: Ctx) -> Trial:
    x, _, _, n, i = _endpoint_slot(ctx, 1)
    return Act(Word.of(q(i)), x), \
        sum_t(Act(Word.of(I(i), D(i)), x), Comp(vecminus(n), Act(Word.of(Q(i)), x)))


def _slot_pair(ctx: Ctx) -> tuple[Term, Term, int, int]:
    """Draws v, i in 1..dim v, n and m, then x2 on v (codomain n) and x1
    on domint(v, i) (codomain m); returns x1, x2, i, n."""
    rng = ctx.rng
    mv = rng.randint(1, 2)
    v = rand_box(rng, mv)
    i = rng.randint(1, mv)
    n = rng.randint(1, 2)
    m = rng.randint(1, 2)
    x2 = rand_slot(ctx, v, n)
    return rand_slot(ctx, domint(v, i), m), x2, i, n


def _t_r16_1_2(ctx: Ctx, sub: Callable[[int], Gen]) -> Trial:
    """R16.1: q<i> under I<i>; R16.2: Q<i> under I<i + 1>, inner Q<i> x2 negated."""
    x1, x2, i, n = _slot_pair(ctx)
    j = i if sub is q else i + 1
    inner = Act(Word.of(sub(i)), x2)
    lhs = Act(Word.of(I(j)), mult_t(x1, inner))
    if sub is Q:
        inner = Comp(vecminus(n), inner)
    return lhs, mult_t(Act(Word.of(I(j)), x1), Act(Word.of(sub(i)), inner))


def _t_r16_3(ctx: Ctx) -> Trial:
    x, _, _, _, i = _indexed_slot(ctx, 0)
    return Act(Word.of(q(i), I(i)), x), \
        sum_t(Act(Word.of(q(i + 1), I(i)), x), Act(Word.of(Q(i + 1), I(i)), x))


def _t_r16_4_5(ctx: Ctx, second: Callable[[int], Gen]) -> Trial:
    x, _, _, n, i = _indexed_slot(ctx, 0)
    return Act(Word.of(Q(i), second(i)), x), \
        Comp(vecminus(n), Act(Word.of(q(i + 1), second(i)), x))


def _rand_smooth_term(ctx: Ctx, depth: int = 2) -> Term:
    rng = ctx.rng
    if depth == 0 or rng.random() < 0.4:
        return rand_polyfun(rng, rand_box(rng, rng.randint(1, 2)), rng.randint(1, 2))
    kind = rng.randrange(3)
    if kind == 0:
        return TupleT(tuple(_rand_smooth_term(ctx, depth - 1)
                            for _ in range(rng.randint(1, 2))))
    if kind == 1:
        inner = _rand_smooth_term(ctx, depth - 1)
        cod = signature(inner).cod_dim
        outer = rand_polyfun(rng, Box.full(cod), rng.randint(1, 2))
        return Comp(outer, inner)
    w = rand_word(rng, max_len=1)
    return Act(w, _rand_smooth_term(ctx, depth - 1))


def _t_r17(ctx: Ctx) -> Trial:
    # every draw has codomain >= 1: rand_polyfun draws codomain 1-2, tuples
    # add codomains and p<i> maps to codomain 1
    t = _rand_smooth_term(ctx)
    return t, linincl_of_polyfun(ctx.evaluate(t))


def _t_r17bis(ctx: Ctx) -> Trial:
    rng = ctx.rng
    w = rand_word(rng, max_len=5, max_index=3)
    t = Act(w, rand_polyfun(rng, rand_box(rng, rng.randint(1, 2)), rng.randint(1, 2)))
    return t, linincl_of_polyfun(ctx.evaluate(t))


CATALOGUE: dict[str, Builder] = {
    "R5": _t_r5,
    "R4bis": _t_r4bis,
    "S0": _t_s0,
    "R1": _t_r1,
    "R1bis": _t_r1bis,
    "R2": _t_r2,
    "R3": _t_r3,
    "S3": _t_s3,
    "R7": _t_r7,
    "S7bis": _t_s7bis,
    "R7ter": _t_r7ter,
    "R7quater": _t_r7quater,
    "R7penta": _t_r7penta,
    "R9": _t_r9,
    "R9.1": _t_r9_1,
    "R9.2": _t_r9_2,
    "R9.3": _t_r9_3,
    "R9bis": _t_r9bis,
    "R9ter": _t_r9ter,
    "R10": _t_r10,
    "R10.1": _t_r10_1,
    "R10bis": _t_r10bis,
    "R11": _t_r11,
    "R12": _t_r12,
    "R12.1": _t_r12_1,
    "R13": _t_r13,
    "R14": lambda ctx: _t_r14_r15(ctx, q),
    "R15": lambda ctx: _t_r14_r15(ctx, Q),
    "R16": _t_r16,
    "R16.1": lambda ctx: _t_r16_1_2(ctx, q),
    "R16.2": lambda ctx: _t_r16_1_2(ctx, Q),
    "R16.3": _t_r16_3,
    "R16.4": lambda ctx: _t_r16_4_5(ctx, I),
    "R16.5": lambda ctx: _t_r16_4_5(ctx, q),
    "R17": _t_r17,
    "R17bis": _t_r17bis,
}


# ---------------------------------------------------------------------------
# the runner


@dataclass
class RelationReport:
    rule_id: str
    trials: int
    verdict: str  # Verified | Failed
    elapsed: float
    witness: Optional[dict] = None

    def line(self) -> str:
        return f"{self.rule_id} {self.verdict} trials={self.trials}"


def _builder(rule_id: str) -> Builder:
    if rule_id not in CATALOGUE:
        raise IdcalcError(f"unknown rule {rule_id!r}")
    return CATALOGUE[rule_id]


def check_relation(rule_id: str, trials: int = TRIALS, seed: int = 0,
                   orientation: Orientation = Orientation.UPPER) -> RelationReport:
    if trials < 1:
        raise IdcalcError(f"trials must be >= 1, got {trials}")
    if trials > MAX_TRIALS:
        raise IdcalcError(f"trials must be <= {MAX_TRIALS}, got {trials}")
    builder = _builder(rule_id)
    rng = random.Random(f"{seed}:{rule_id}")
    start = time.perf_counter()
    for k in range(trials):
        ctx = Ctx(rng, orientation, k)
        lhs_t, rhs_t = builder(ctx)
        # both sides through the trial's memo: a subterm object they share,
        # or that the builder evaluated, is evaluated once
        lhs, rhs = ctx.evaluate(lhs_t), ctx.evaluate(rhs_t)
        sig_ok = lhs.domain == rhs.domain and lhs.cod_dim == rhs.cod_dim
        if not sig_ok or lhs != rhs:
            witness = {
                "trial": k,
                "lhs_term": format_term(lhs_t),
                "rhs_term": format_term(rhs_t),
                "instantiation": {name: format_polyfun(f)
                                  for name, f in ctx.inst.items()},
                "lhs_value": format_polyfun(lhs),
                "rhs_value": format_polyfun(rhs),
                "mismatch": "signature" if not sig_ok else "value",
            }
            return RelationReport(rule_id, trials, "Failed",
                                  time.perf_counter() - start, witness)
    return RelationReport(rule_id, trials, "Verified", time.perf_counter() - start)


def check_all(trials: int = TRIALS, seed: int = 0,
              orientation: Orientation = Orientation.UPPER,
              rules: Optional[Sequence[str]] = None) -> list[RelationReport]:
    names = list(CATALOGUE) if rules is None else list(rules)
    for r in names:
        _builder(r)  # every id is checked before any rule runs
    return [check_relation(r, trials, seed, orientation) for r in names]


def reports_to_json(reports: Sequence[RelationReport]) -> str:
    return json.dumps([{
        "rule": r.rule_id,
        "verdict": r.verdict,
        "trials": r.trials,
        "time_ms": int(r.elapsed * 1000),
        "witness": r.witness,
    } for r in reports], indent=2)
