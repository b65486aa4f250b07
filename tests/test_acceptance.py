"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import random
import time
from fractions import Fraction

import numpy as np

from idcalc.boxes import Box, domint
from idcalc.evaluation import eval_term, linincl
from idcalc.polynomials import Orientation, Poly, PolyFun, parse_polyfun, vsum
from idcalc.prederiv import (GermCore, PreDeriv, apply, canonical_direction,
                             chain_check, eval_smooth, identity_core,
                             nontriviality_witness, vanishing_space)
from idcalc.relations import (Ctx, _rand_smooth_term, check_all, check_relation, rand_box,
                              rand_coeff, rand_word)
from idcalc.sphere import comb_grid, transition
from idcalc.terms import max_augment
from idcalc.words import Equal, normalize, oriented_steps, relation_step, word_eq
from oracles import has_left_nested_comp, relation_holds_on, vscal
from test_prederiv import rand_direction, rand_pointed

F = Fraction
SEED = 20260809


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------


def test_criterion_1_relation_catalogue():
    """All 36 checkers verify with 20 trials each, exactly, within budget."""
    start = time.perf_counter()
    reports = check_all(trials=20, seed=SEED)
    elapsed = time.perf_counter() - start
    bad = [r.rule_id for r in reports if r.verdict != "Verified"]
    ok = len(reports) == 36 and not bad and elapsed < 300
    _report(1, ok, f"36 rules x 20 trials, failures={bad}, {elapsed:.1f}s < 300s")


def test_criterion_2_orientation_theorem_by_test():
    """The swapped endpoint orientation breaks the substitution relations
    with witness f(x) = x; the adopted orientation passes everything."""
    ident = parse_polyfun("poly 1->1 on R : 1 x1")
    swapped_breaks = (
        not relation_holds_on("leftproj.i", 1, None, ident, Orientation.LOWER)
        and not relation_holds_on("rightproj.i", 1, None, ident, Orientation.LOWER))
    r16_lower = check_relation("R16", trials=1, seed=SEED,
                               orientation=Orientation.LOWER)
    r14_lower = check_relation("R14", trials=1, seed=SEED,
                               orientation=Orientation.LOWER)
    r15_lower = check_relation("R15", trials=1, seed=SEED,
                               orientation=Orientation.LOWER)
    lower_fail = all(r.verdict == "Failed" and r.witness["trial"] == 0
                     and "1 x1" in r.witness["lhs_term"]
                     for r in (r16_lower, r14_lower, r15_lower))
    adopted_ok = all(
        check_relation(rule, trials=20, seed=SEED).verdict == "Verified"
        for rule in ("R14", "R15", "R16"))
    adopted_rel = (relation_holds_on("leftproj.i", 1, None, ident)
                   and relation_holds_on("rightproj.i", 1, None, ident))
    ok = swapped_breaks and lower_fail and adopted_ok and adopted_rel
    _report(2, ok, "swapped orientation fails R14/R15/R16 and the "
                   "substitution relations with witness f(x)=x; adopted passes")


def test_criterion_3_monoid_confluence():
    """500 random words, two independent schedules of the oriented system,
    identical normal forms; word_eq never Unknown on the suite's pairs."""
    rng = random.Random(SEED)
    mismatches = 0
    unknowns = 0
    for _ in range(500):
        w = rand_word(rng, 8, 4)
        nf = normalize(w)
        for _ in range(2):
            cur = w
            for _ in range(2000):
                steps = oriented_steps(cur)
                if not steps:
                    break
                cur = relation_step(cur, *rng.choice(steps))
            if normalize(cur) != nf:
                mismatches += 1
            if not isinstance(word_eq(w, cur), Equal):
                unknowns += 1
    ok = mismatches == 0 and unknowns == 0
    _report(3, ok, f"500 words x 2 schedules: {mismatches} mismatches, "
                   f"{unknowns} non-Equal verdicts")


def test_criterion_4_domint_identities():
    """Exchange identities for 200 random boxes, all index pairs <= 5."""
    rng = random.Random(SEED + 1)
    bad = 0
    for _ in range(200):
        box = rand_box(rng, rng.randint(0, 4))
        for i in range(1, 6):
            for j in range(1, 6):
                if i < j:
                    okay = domint(domint(box, i), j) == domint(domint(box, j - 1), i)
                else:
                    okay = domint(domint(box, i), j) == domint(domint(box, j), i + 1)
                bad += not okay
    _report(4, bad == 0, f"200 boxes x 25 index pairs, {bad} failures")


def test_criterion_5_nontriviality_product():
    """The iterated integral matches u_l * prod(x_2i - x_2i-1) exactly."""
    rng = random.Random(SEED + 2)
    bad = 0
    for l in (1, 2, 3):
        for ell in range(1, l + 1):
            for _ in range(10):
                u = [F(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(l)]
                got = nontriviality_witness(l, ell, u)
                expected = Poly.const(2 * l, u[ell - 1])
                for i in range(1, l + 1):
                    expected = expected.mul(
                        Poly.var(2 * l, 2 * i).sub(Poly.var(2 * l, 2 * i - 1)))
                bad += got.components[0] != expected
    _report(5, bad == 0, f"l in 1..3, all components, 10 directions each, "
                         f"{bad} mismatches")


def test_criterion_6_section_and_chain_rule():
    """Smooth evaluation splits the identity core exactly; the chain rule
    holds exactly on 100 random triples."""
    rng = random.Random(SEED + 3)
    bad_section = 0
    for _ in range(100):
        m = rng.randint(1, 4)
        u = tuple(F(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range(m))
        bad_section += eval_smooth(PreDeriv.of(identity_core(m), u)) != u
    bad_chain = 0
    for _ in range(100):
        l, m, n = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 2)
        z = GermCore(rand_pointed(rng, l, m))
        dv = PreDeriv.of(z, rand_direction(rng, l))
        f = rand_pointed(rng, m, n)
        bad_chain += not chain_check(f, dv)
    ok = bad_section == 0 and bad_chain == 0
    _report(6, ok, f"section identity failures={bad_section}, "
                   f"chain-rule failures={bad_chain} (100 each)")


def _rand_core_with_kernel(rng):
    """Cores drawn so roughly half have a nontrivial vanishing space."""
    l = rng.randint(1, 3)
    if rng.random() < 0.5:
        used = rng.randint(1, l)
        base = rand_pointed(rng, used, rng.randint(1, 2), deg=2)
        comps = [c.remap(l, list(range(1, used + 1))) for c in base.components]
        return GermCore(PolyFun.make(Box.cube(-2, 2, l), comps))
    return GermCore(rand_pointed(rng, l, rng.randint(1, 2), deg=2))


def test_criterion_7_vanishing_space_soundness():
    """Basis directions annihilate; canonical direction is idempotent and
    apply-equivalent."""
    rng = random.Random(SEED + 4)
    bad = 0
    for _ in range(100):
        z = _rand_core_with_kernel(rng)
        l, m = z.source_dim, z.target_dim
        basis = vanishing_space(z)
        for b in basis:
            for _ in range(20):
                w = rand_pointed(rng, m, 1, deg=2)
                out = apply(PreDeriv.of(z, b), w)
                bad += not all(g.components[0].is_zero for g in out)
        u = rand_direction(rng, l)
        cu = canonical_direction(z, u)
        bad += canonical_direction(z, cu) != cu
        for _ in range(5):
            w = rand_pointed(rng, m, 1, deg=2)
            a = apply(PreDeriv.of(z, u), w)
            c = apply(PreDeriv.of(z, list(cu)), w)
            bad += not (len(a) == len(c) and all(
                x.components == y.components for x, y in zip(a, c)))
    _report(7, bad == 0, f"100 cores: basis annihilation + canonical "
                         f"idempotence/apply-equivalence, {bad} failures")


def test_criterion_8_augmentation_normal_form():
    """Right-association is idempotent, evaluation-invariant, and leaves
    no left-nested composition."""
    ctx = Ctx(random.Random(SEED + 5), Orientation.UPPER, 0)
    bad = 0
    for _ in range(200):
        t = _rand_smooth_term(ctx, 3)
        out = max_augment(t)
        bad += max_augment(out) != out
        bad += has_left_nested_comp(out)
        bad += eval_term(t, permissive=True) != eval_term(out, permissive=True)
    _report(8, bad == 0, f"200 random smooth terms, {bad} failures")


def test_criterion_9_sphere_combing():
    """Grid 200x200, eps = 0.1: vanishing radius 0.5 +- 0.02, certificate
    floor 1e-6, involution error < 1e-10, within the runtime budget."""
    start = time.perf_counter()
    data = comb_grid(2, 200, 0.1)
    elapsed = time.perf_counter() - start
    radius_ok = abs(data["vanishing_radius"] - 0.5) <= 0.02
    cert_ok = data["min_certificate"] > 1e-6
    rng = random.Random(SEED + 6)
    inv_err = 0.0
    for _ in range(100):
        r = rng.uniform(0.34, 0.99)
        th = rng.uniform(0, 2 * np.pi)
        x = np.array([r * np.cos(th), r * np.sin(th)])
        inv_err = max(inv_err, float(np.linalg.norm(transition(transition(x)) - x)))
    ok = radius_ok and cert_ok and inv_err < 1e-10 and elapsed < 60
    _report(9, ok, f"radius={data['vanishing_radius']:.4f} (0.5 +- 0.02), "
                   f"min-cert={data['min_certificate']:.2e} > 1e-6, "
                   f"involution={inv_err:.2e} < 1e-10, {elapsed:.1f}s < 60s")


def test_criterion_10_linincl_roundtrip():
    """Evaluating the linear embedding reproduces 100 random combinations
    exactly."""
    rng = random.Random(SEED + 7)
    bad = 0
    for _ in range(100):
        m = rng.randint(1, 3)
        dom = Box.cube(-2, 2, m)
        combos = []
        expected_comps = []
        for _ in range(rng.randint(1, 2)):
            k = rng.randint(1, 3)
            coeffs, bases = [], []
            acc = PolyFun.zero(dom, 1)
            for _ in range(k):
                c = rand_coeff(rng)
                base = rand_pointed(rng, m, 1, deg=2).restrict(dom)
                coeffs.append(c)
                bases.append(base)
                acc = vsum(acc, vscal(c, base))
            combos.append((coeffs, bases))
            expected_comps.append(acc.components[0])
        expected = PolyFun.make(dom, expected_comps)
        got = eval_term(linincl(combos), permissive=True)
        bad += got != expected
    _report(10, bad == 0, f"100 random combinations, {bad} mismatches")
