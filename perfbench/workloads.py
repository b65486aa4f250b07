"""The four workloads.  Each builds, from its seed, a fixed list of
operations per round, one untimed warm-up operation per class, and a
check of every answer against the sympy reference or a property the
paper proves.

A check returns None when the answer is right, ``Failed(kind)`` for an
answer counted as a failed operation, and an error message when the
answer is wrong.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Union

import numpy as np
import sympy

import reference as R
import wordgen as W
from spans import RULES

from idcalc import cli, prederiv, relations, sphere, words
from idcalc.boxes import Box, Ray1
from idcalc.polynomials import Orientation, Poly, PolyFun


@dataclass(frozen=True)
class Failed:
    kind: str


Verdict = Union[None, Failed, str]


def _fingerprint(answer) -> str:
    """A digest of an answer that is equal exactly when the answers are;
    timings inside a relation report are left out."""
    if isinstance(answer, relations.RelationReport):
        answer = (answer.rule_id, answer.verdict, answer.trials, answer.witness)
    data = answer.tobytes() if isinstance(answer, np.ndarray) else repr(answer).encode()
    return hashlib.sha256(data).hexdigest()


@dataclass
class Op:
    cls: str
    call: Callable[[], Any]
    check: Callable[[Any], Verdict]
    digest: Callable[[Any], str] = _fingerprint


# ---------------------------------------------------------------------------
# catalogue: the 36-rule relation catalogue, plus the orientation test


LOWER_RULES = ("R14", "R15", "R16")


def _verified(rule: str) -> Callable[[Any], Verdict]:
    def check(rep) -> Verdict:
        if rep.rule_id != rule or rep.trials != 20 or rep.verdict != "Verified":
            return f"{rule}: {rep.verdict} (expected Verified), witness {rep.witness}"
        return None
    return check


def _fails_lower(rule: str) -> Callable[[Any], Verdict]:
    def check(rep) -> Verdict:
        if rep.verdict != "Failed" or (rep.witness or {}).get("mismatch") != "value":
            return f"{rule} lower orientation: {rep.verdict} (expected a value mismatch)"
        return None
    return check


class Catalogue:
    """One pass checks every rule with 20 trials under the upper
    orientation and R14/R15/R16 under the lower one; each pass has a
    fresh catalogue seed."""

    name = "catalogue"
    round_s = 3.5

    def __init__(self, seed: int):
        self.seed = seed
        if sorted(relations.CATALOGUE) != sorted(RULES):
            raise SystemExit("the program's catalogue is not the 36-rule catalogue")

    def _ops(self, s: int, rules, lower_rules) -> list[Op]:
        ops = [Op("upper", lambda r=r: relations.check_relation(r, 20, s), _verified(r))
               for r in rules]
        ops += [Op("lower", lambda r=r: relations.check_relation(r, 20, s, Orientation.LOWER),
                   _fails_lower(r)) for r in lower_rules]
        return ops

    def round_ops(self, r: int) -> list[Op]:
        s = random.Random(f"catalogue:{self.seed}:{r}").randrange(2**31)
        return self._ops(s, RULES, LOWER_RULES)

    def warmup_ops(self) -> list[Op]:
        return self._ops(self.seed, ["R9"], ["R14"])


# ---------------------------------------------------------------------------
# words: the word problem


# word_eq queries answered Unknown because of known faults (see README)
ORACLE_MISSES = [("p3 I2", "p4 I2"), ("D5 I2", "D3 D2 I2"), ("D4 I4 D4", "I4 D4")]
ONE_RELATION = [("q1 D1", "D2 q1"), ("q2 q1", "q1 q1"), ("Q2 q1", "q1 Q1")]
BATTERY_SEED = 0
N_RANDOM_PAIRS, N_WALKS = 24, 12
NORMALIZE_MIX = {8: 3, 16: 3, 32: 12}
SEMANTIC_MAX_LEN = 16


def check_word_eq(a: W.Word, b: W.Word, built_equal: bool, verdict,
                  rng: random.Random) -> Verdict:
    kind = type(verdict).__name__
    pair = f"{W.text(a)} | {W.text(b)}"
    if kind == "Equal":
        return None if R.words_agree(a, b, rng) else f"Equal for {pair}, reference differs"
    if kind == "NotEqual":
        if built_equal:
            return f"NotEqual for {pair}, which the relation table proves equal"
        f = verdict.witness
        wit = R.from_terms(f.arity, [c.terms for c in f.components])
        if not R.separates(a, b, wit, rng):
            return f"NotEqual witness does not separate {pair}"
        return None
    if kind == "Unknown":
        equal = R.words_agree(a, b, rng)
        if built_equal and not equal:
            return f"rewrite walk produced a pair the reference separates: {pair}"
        return Failed("nf_incomplete" if equal else "oracle_miss")
    return f"unexpected verdict {verdict!r} for {pair}"


def check_normal_form(w: W.Word, nf_word, rng: random.Random) -> Verdict:
    nf = R.parse_word(str(nf_word))
    if str(words.normalize(nf_word)) != str(nf_word):
        return f"normal form {W.text(nf)} of {W.text(w)} is not normal"
    size = R.witness_size(w)
    f = R.product_witness(rng, *size)
    if len(w) > SEMANTIC_MAX_LEN:
        # a long normal form puts ~20 integrals before the derivatives that
        # cancel them, which the reference cannot expand in time; compare
        # the arity and codomain effects instead
        a, b = R.shape(w, f), R.shape(nf, f)
        return None if a == b else f"{W.text(nf)} changes the shape of {W.text(w)}: {a} vs {b}"
    if not R.agree(R.act_word(w, f), R.act_word(nf, f), rng):
        return f"normal form {W.text(nf)} acts differently from {W.text(w)}"
    return None


class Words:
    """Mostly word_eq queries from a fixed battery drawn with seed 0, plus
    normalizations of fresh random words of lengths 8, 16 and 32, with
    each generator kind equally often, drawn from the run's seed."""

    name = "words"
    round_s = 3.0

    def __init__(self, seed: int):
        self.seed = seed
        self.check_rng = random.Random(f"words-check:{seed}")
        rng = random.Random(BATTERY_SEED)
        pairs = [(R.parse_word(a), R.parse_word(b), False) for a, b in ORACLE_MISSES]
        pairs += [(R.parse_word(a), R.parse_word(b), True) for a, b in ONE_RELATION]
        for _ in range(N_RANDOM_PAIRS):
            pairs.append((W.random_word(rng, rng.randint(1, 3)),
                          W.random_word(rng, rng.randint(1, 3)), False))
        while len(pairs) < 6 + N_RANDOM_PAIRS + N_WALKS:
            start = W.random_word(rng, rng.randint(1, 6))
            end, used = W.walk(rng, start, rng.randint(1, 4))
            if used:
                pairs.append((start, end, True))
        self.battery = [(a, b, eq, words.parse_word(W.text(a)), words.parse_word(W.text(b)))
                        for a, b, eq in pairs]

    def _eq_op(self, a, b, eq, pa, pb) -> Op:
        return Op("word_eq", lambda: words.word_eq(pa, pb),
                  lambda v: check_word_eq(a, b, eq, v, self.check_rng))

    def _norm_op(self, w: W.Word) -> Op:
        pw = words.parse_word(W.text(w))
        return Op(f"normalize{len(w)}", lambda: words.normalize(pw),
                  lambda nf: check_normal_form(w, nf, self.check_rng))

    def round_ops(self, r: int) -> list[Op]:
        rng = random.Random(f"words:{self.seed}:{r}")
        ops = [self._eq_op(*item) for item in self.battery]
        for length, count in NORMALIZE_MIX.items():
            ops += [self._norm_op(W.balanced_word(rng, length)) for _ in range(count)]
        rng.shuffle(ops)
        return ops

    def warmup_ops(self) -> list[Op]:
        rng = random.Random(f"words-warmup:{self.seed}")
        a, b = R.parse_word("q1"), R.parse_word("D2 I1")
        return [self._eq_op(a, b, True, words.parse_word("q1"), words.parse_word("D2 I1"))] + [
            self._norm_op(W.balanced_word(rng, length)) for length in NORMALIZE_MIX]


# ---------------------------------------------------------------------------
# germs: pre-derivations at a fibre


def _rand_q(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 4), rng.choice((1, 2)))


def _rand_terms(rng: random.Random, arity: int, max_deg: int, const: bool) -> list:
    """A few random monomials (exponents, coefficient), without a constant
    term unless ``const``."""
    terms = [((0,) * arity, _rand_q(rng))] if const else []
    for _ in range(rng.randint(1, 3)):
        exps = [0] * arity
        for _ in range(rng.randint(1, max_deg)):
            exps[rng.randrange(arity)] += 1
        terms.append((tuple(exps), _rand_q(rng)))
    return terms


def _rand_poly(rng: random.Random, arity: int, max_deg: int, const: bool) -> sympy.Poly:
    return R.poly(_rand_terms(rng, arity, max_deg, const), arity)


def _program_poly(p: sympy.Poly) -> Poly:
    return Poly.make(len(p.gens), {m: Fraction(int(c.p), int(c.q)) for m, c in p.terms() if c})


def _reference_poly(p: Poly) -> sympy.Poly:
    return R.poly(p.terms, p.arity)


def _cube(arity: int, r: int) -> Box:
    return Box((Ray1.bounded(-r, r),) * arity)


@dataclass
class Germ:
    l: int                  # core arity
    k: int                  # target dimension
    z: list                 # core components (reference polynomials)
    u: tuple                # direction
    f: list                 # pointed map components on (-1,1)^k
    w: sympy.Poly           # scalar function on (-1,1)^k
    core: Any               # the program's GermCore on (-2,2)^l
    dv: Any                 # the program's PreDeriv
    fmap: PolyFun
    wfun: PolyFun


# (core arity l, target dimension k, whether the core factors through a
# linear map to fewer coordinates): every round uses each shape once per
# class, half of them with a nontrivial vanishing space
SHAPES = [(1, 1, False), (2, 2, True), (3, 1, True), (2, 3, False), (3, 2, True), (1, 3, False)]


def random_germ(rng: random.Random, l: int, k: int, degenerate: bool) -> Germ:
    """A random core over (-2,2)^l with a pointed map and a scalar
    function on (-1,1)^k."""
    if degenerate:
        r = rng.randint(1, l - 1)
        lin = [R.poly([(tuple(int(j == i) for j in range(l)), rng.choice((-2, -1, 1, 2)))
                       for i in range(l) if rng.random() < 0.7] or [((1,) + (0,) * (l - 1), 1)], l)
               for _ in range(r)]
        z = [R.subst(_rand_poly(rng, r, 3, False), lin) for _ in range(k)]
    else:
        z = [_rand_poly(rng, l, 3, False) for _ in range(k)]
    u = tuple(Fraction(rng.randint(-3, 3)) for _ in range(l))
    f = [_rand_poly(rng, k, 2, False) for _ in range(rng.randint(1, 2))]
    w = _rand_poly(rng, k, 2, True)
    core = prederiv.GermCore(PolyFun.make(_cube(l, 2), [_program_poly(c) for c in z]))
    return Germ(l, k, z, u, f, w, core, prederiv.PreDeriv.of(core, u),
                PolyFun.make(_cube(k, 1), [_program_poly(c) for c in f]),
                PolyFun.make(_cube(k, 1), [_program_poly(w)]))


def check_chain(g: Germ, ok) -> Verdict:
    """chain_check must hold, as it does in the reference:
    J(f o z)(0) u = J(f)(0) J(z)(0) u."""
    lhs = R.jacobian_at_zero(g.f, g.k) * R.jacobian_at_zero(g.z, g.l)
    rhs = R.jacobian_at_zero([R.subst(c, g.z) for c in g.f], g.l)
    u = sympy.Matrix([R.rat(c) for c in g.u])
    if (lhs - rhs) * u != sympy.zeros(len(g.f), 1):
        return "the reference breaks the chain rule"
    return None if ok is True else f"chain_check returned {ok!r}"


def check_apply(g: Germ, germs) -> Verdict:
    if len(germs) != 1:
        return f"apply returned {len(germs)} germs for one summand"
    out = germs[0]
    want = R.directional([R.subst(g.w, g.z)], g.u)[0]
    if out.cod_dim != 1 or _reference_poly(out.components[0]) != want:
        return "applied germ differs from the reference"
    if out.arity != g.l or not out.domain.contains([0] * g.l):
        return "applied germ is not a germ at 0 of the core's source"
    return None


def check_vanishing(g: Germ, answer) -> Verdict:
    basis, canon = answer
    dim = g.l - R.vanishing_rank(g.z, g.l)
    if len(basis) != dim:
        return f"vanishing space of dimension {len(basis)}, reference {dim}"
    if basis and sympy.Matrix([[R.rat(c) for c in b] for b in basis]).rank() != len(basis):
        return "vanishing basis is not independent"
    for b in basis:
        if not R.annihilates(g.z, b):
            return f"vanishing vector {b} does not annihilate the core"
        if sum(Fraction(c) * d for c, d in zip(canon, b)) != 0:
            return "canonical direction is not orthogonal to the vanishing space"
    if not R.annihilates(g.z, [a - Fraction(c) for a, c in zip(g.u, canon)]):
        return "canonical direction does not differ from u by a vanishing direction"
    return None


class Germs:
    """chain_check, apply, and vanishing_space with canonical_direction,
    each on a fresh random core per operation, six of each per round."""

    name = "germs"
    round_s = 0.15

    def __init__(self, seed: int):
        self.seed = seed

    def _ops(self, rng: random.Random, shapes) -> list[Op]:
        ops = []
        for shape in shapes:
            g = random_germ(rng, *shape)
            ops.append(Op("chain_check", lambda g=g: prederiv.chain_check(g.fmap, g.dv),
                          lambda v, g=g: check_chain(g, v)))
            g = random_germ(rng, *shape)
            ops.append(Op("apply", lambda g=g: prederiv.apply(g.dv, g.wfun),
                          lambda v, g=g: check_apply(g, v)))
            g = random_germ(rng, *shape)
            ops.append(Op("vanishing",
                          lambda g=g: (prederiv.vanishing_space(g.core),
                                       prederiv.canonical_direction(g.core, g.u)),
                          lambda v, g=g: check_vanishing(g, v)))
        return ops

    def round_ops(self, r: int) -> list[Op]:
        return self._ops(random.Random(f"germs:{self.seed}:{r}"), SHAPES)

    def warmup_ops(self) -> list[Op]:
        return self._ops(random.Random(f"germs-warmup:{self.seed}"), SHAPES[1:2])


# ---------------------------------------------------------------------------
# sphere: the float layer and the CLI sweep

GRID, EPS, EXTENT = 200, 0.1, 0.99
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def grid_points() -> np.ndarray:
    """The chart-disc grid points of the sweep, counted by the benchmark."""
    axis = np.linspace(-EXTENT, EXTENT, GRID)
    xs, ys = np.meshgrid(axis, axis, indexing="ij")
    pts = np.stack([xs.ravel(), ys.ravel()], axis=-1)
    return pts[np.sqrt(np.sum(pts ** 2, axis=-1)) < EXTENT]


def check_sweep_csv(path: str, expected_rows: int) -> Verdict:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["y1", "y2", "proj1", "proj2", "projnorm", "certificate"]:
        return "sweep CSV has no header"
    body = rows[1:]
    if len(body) != expected_rows:
        return f"sweep CSV has {len(body)} rows, {expected_rows} grid points lie in the disc"
    vals = np.array(body, dtype=float)
    best = vals[np.argmin(vals[:, 4])]
    radius = math.hypot(best[0], best[1])
    if abs(radius - 0.5) > 0.02:
        return f"vanishing radius {radius:.4f} is not 0.5 +- 0.02"
    if not np.min(vals[:, 5]) > 1e-6:
        return f"minimum certificate {np.min(vals[:, 5]):.3e} is not above 1e-6"
    return None


def _annulus_point(rng: random.Random) -> tuple[float, float]:
    """A random chart point outside the constant inner region, where the
    combing field is fully evaluated."""
    ang, rad = rng.uniform(0, 2 * math.pi), rng.uniform(0.45, 0.98)
    return rad * math.cos(ang), rad * math.sin(ang)


class Sphere:
    """Per round two `comb-sphere --grid 200` CLI sweeps into a CSV file,
    the classical projection on the vanishing circle and at a sweep grid
    point, and six certificates: sweeps are 20% of the operations, so the
    median falls among the certificates and the 90th percentile among the
    sweeps."""

    name = "sphere"
    round_s = 0.75

    def __init__(self, seed: int):
        self.seed = seed
        os.makedirs(OUT_DIR, exist_ok=True)
        self.csv = os.path.join(OUT_DIR, "sweep.csv")
        self.points = grid_points()
        with contextlib.redirect_stderr(io.StringIO()):
            self.sweep = sphere.comb_grid(2, GRID, EPS)
        if not np.array_equal(self.sweep["points"], self.points):
            raise SystemExit("the sweep's grid points differ from the benchmark's")
        self.annulus = np.flatnonzero(np.sqrt(np.sum(self.points ** 2, axis=-1)) > 0.45)

    def _sweep_op(self) -> Op:
        def call():
            with contextlib.redirect_stderr(io.StringIO()):
                return cli.main(["comb-sphere", "--grid", str(GRID), "--eps", str(EPS),
                                 "--out", self.csv])

        def digest(code) -> str:
            with open(self.csv, "rb") as fh:
                return f"{code}:{hashlib.sha256(fh.read()).hexdigest()}"

        return Op("sweep", call, lambda code: f"comb-sphere exit code {code}" if code != 0
                  else check_sweep_csv(self.csv, len(self.points)), digest)

    def _classical_ops(self, rng: random.Random) -> list[Op]:
        y = (0.0, rng.choice((-0.5, 0.5)))
        k = int(rng.choice(self.annulus))
        pt, want = self.points[k], self.sweep["projection"][k]
        return [Op("classical", lambda: sphere.comb_classical(y, 2, EPS),
                   lambda v: None if np.linalg.norm(v) < 1e-6
                   else f"projection {np.linalg.norm(v):.3e} at {y} is not below 1e-6"),
                Op("classical", lambda: sphere.comb_classical(pt, 2, EPS),
                   lambda v: None if np.max(np.abs(v - want)) <= 1e-9
                   else f"projection at {pt} differs from the sweep by "
                        f"{np.max(np.abs(v - want)):.3e}")]

    def _certificate_op(self, rng: random.Random) -> Op:
        q = _annulus_point(rng)
        return Op("certificate", lambda: sphere.comb_certificate(q, 2, EPS),
                  lambda v: None if v > 1e-6 else f"certificate {v:.3e} at {q} is not above 1e-6")

    def round_ops(self, r: int) -> list[Op]:
        rng = random.Random(f"sphere:{self.seed}:{r}")
        return ([self._sweep_op(), self._sweep_op()] + self._classical_ops(rng)
                + [self._certificate_op(rng) for _ in range(6)])

    def warmup_ops(self) -> list[Op]:
        rng = random.Random(f"sphere-warmup:{self.seed}")
        return [self._sweep_op(), self._classical_ops(rng)[1], self._certificate_op(rng)]


WORKLOADS = {w.name: w for w in (Catalogue, Words, Germs, Sphere)}
