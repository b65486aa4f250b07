import collections
import hashlib
import json
import random

import pytest

from idcalc.boxes import Box, IdcalcError, Ray1
from idcalc import evaluation, polynomials
from idcalc.polynomials import Orientation, Poly
from idcalc.relations import (CATALOGUE, Ctx, check_all, check_relation, rand_subbox,
                              reports_to_json)
from idcalc.terms import TupleT, classify, format_term

ALL_RULES = ["R5", "R4bis", "S0", "R1", "R1bis", "R2", "R3", "S3", "R7",
             "S7bis", "R7ter", "R7quater", "R7penta", "R9", "R9.1", "R9.2",
             "R9.3", "R9bis", "R9ter", "R10", "R10.1", "R10bis", "R11", "R12",
             "R12.1", "R13", "R14", "R15", "R16", "R16.1", "R16.2", "R16.3",
             "R16.4", "R16.5", "R17", "R17bis"]


def test_catalogue_is_complete_and_ordered():
    assert list(CATALOGUE) == ALL_RULES
    assert len(CATALOGUE) == 36


@pytest.mark.parametrize("ray", [
    Ray1.above(10), Ray1.below(-9), Ray1.above(-3), Ray1.below(2), Ray1.above(8),
    Ray1.full(), Ray1.bounded(-1, 1), Ray1.bounded(20, 21)],
    ids=["above-10", "below--9", "above--3", "below-2", "above-8", "full", "bounded",
         "bounded-far"])
def test_rand_subbox_closure_lies_strictly_inside(ray):
    rng = random.Random(0)
    for _ in range(20):
        (sub,) = rand_subbox(rng, Box((ray,))).factors
        assert sub.lo is not None and sub.hi is not None and sub.lo < sub.hi
        assert ray.lo is None or ray.lo < sub.lo
        assert ray.hi is None or sub.hi < ray.hi


def test_single_rule_verifies():
    report = check_relation("R7", trials=5, seed=1)
    assert report.verdict == "Verified"
    assert report.trials == 5


def test_reports_are_deterministic():
    a = check_relation("R16", trials=4, seed=9)
    b = check_relation("R16", trials=4, seed=9)
    assert a.verdict == b.verdict == "Verified"


def test_unknown_rule_is_a_domain_error():
    with pytest.raises(IdcalcError, match="unknown rule 'R99'"):
        check_relation("R99", trials=1, seed=0)
    with pytest.raises(IdcalcError, match="unknown rule 'R99'"):
        check_all(trials=1, rules=["R7", "R99"])


def test_check_all_with_no_rules_checks_none():
    assert check_all(trials=1, rules=[]) == []


def test_swapped_orientation_fails_endpoint_rules_with_identity_witness():
    for rule in ("R14", "R15", "R16"):
        report = check_relation(rule, trials=3, seed=0,
                                orientation=Orientation.LOWER)
        assert report.verdict == "Failed", rule
        # the canonical first trial is the identity map on the line
        assert report.witness["trial"] == 0
        assert "1 x1" in report.witness["lhs_term"]


def test_adopted_orientation_verifies_endpoint_rules():
    for rule in ("R14", "R15", "R16", "R16.1", "R16.2", "R16.3", "R16.4", "R16.5"):
        report = check_relation(rule, trials=5, seed=0)
        assert report.verdict == "Verified", (rule, report.witness)


def test_report_line_format():
    report = check_relation("R9", trials=2, seed=3)
    line = report.line()
    assert line == "R9 Verified trials=2"


def test_json_report_carries_witnesses():
    reports = [check_relation("R16", trials=2, seed=0,
                              orientation=Orientation.LOWER)]
    payload = json.loads(reports_to_json(reports))
    assert payload[0]["verdict"] == "Failed"
    assert "lhs_value" in payload[0]["witness"]
    assert "instantiation" in payload[0]["witness"]


def test_check_all_subset():
    reports = check_all(trials=2, seed=4, rules=["R7", "R9"])
    assert [r.rule_id for r in reports] == ["R7", "R9"]
    assert all(r.verdict == "Verified" for r in reports)


def test_catalogue_reports_are_pinned():
    """The full JSON reports (time_ms dropped) of all 36 rules for seeds 0
    and 1 at 20 trials, plus R14/R15/R16 under the lower orientation:
    the digest was computed at commit c0f801f, before the builders'
    shared prologues were merged, so every draw keeps its order."""
    parts = []
    for seed in (0, 1):
        for orientation, rules in ((Orientation.UPPER, None),
                                   (Orientation.LOWER, ["R14", "R15", "R16"])):
            rows = json.loads(reports_to_json(check_all(20, seed, orientation, rules)))
            for row in rows:
                del row["time_ms"]
            parts.append(json.dumps(rows, sort_keys=True))
    digest = hashlib.sha256("\n".join(parts).encode()).hexdigest()
    assert digest == "f63179f4d3ee89c96a9b02de94778825ffd0249545541f49ed78273a1900bc2c"


def test_catalogue_terms_are_pinned():
    """The text of both sides of every trial term, for the rules and seeds
    of the report pin with 20 trials each: the report digest sees term text
    only in failing witnesses, this one sees the trees of passing rules too.
    The digest was computed at commit c4ec774, when the catalogue built its
    pointwise sums and products by hand, and recomputed when `_equal_pair`
    stopped drawing the pair (x, x), which moves the draws of R4bis and
    R9.2."""
    digest = hashlib.sha256()
    for seed in (0, 1):
        for orientation, rules in ((Orientation.UPPER, ALL_RULES),
                                   (Orientation.LOWER, ["R14", "R15", "R16"])):
            for rule in rules:
                rng = random.Random(f"{seed}:{rule}")
                for k in range(20):
                    lhs, rhs = CATALOGUE[rule](Ctx(rng, orientation, k))
                    digest.update((format_term(lhs) + "\n" + format_term(rhs) + "\n").encode())
    assert digest.hexdigest() == \
        "1805da3446d58e91c082bb02f0dbb1d307373feb03d3d4862d61a84fd449d947"


def test_catalogue_classification_is_pinned():
    """The fragment class of both sides of every upper-orientation trial
    term, seeds 0 and 1 with 20 trials each, in catalogue order. Counts and
    digest were computed at commit 010efac, before `classify` became a fold,
    and recomputed when `_equal_pair` stopped drawing the pair (x, x)."""
    digest = hashlib.sha256()
    counts = collections.Counter()
    for seed in (0, 1):
        for rule in ALL_RULES:
            rng = random.Random(f"{seed}:{rule}")
            for k in range(20):
                for side in CATALOGUE[rule](Ctx(rng, Orientation.UPPER, k)):
                    fragment = classify(side)
                    counts[fragment] += 1
                    digest.update((fragment + "\n").encode())
    assert counts == {"Smooth": 1632, "ContinuousOK": 1103, "Illegal": 145}
    assert digest.hexdigest() == \
        "7783deae333953046da3aff2026e53f9ab989aec627c8857721115ee22fb33a0"


@pytest.mark.parametrize("seed", [0, 4, 9])
def test_no_trial_compares_a_term_with_itself(seed):
    """The two sides of every trial are different terms: a trial whose
    sides are one term verifies nothing."""
    for rule in ALL_RULES:
        rng = random.Random(f"{seed}:{rule}")
        for k in range(20):
            lhs, rhs = CATALOGUE[rule](Ctx(rng, Orientation.UPPER, k))
            assert lhs is not rhs and lhs != rhs, (rule, k)


@pytest.mark.parametrize("rule, composes, substs, apart", [
    ("R2", 51, 86, (62, 101)),
    ("R10bis", 53, 77, (66, 96)),
])
def test_check_relation_work_counts(monkeypatch, rule, composes, substs, apart):
    """Both sides of a trial are evaluated through the trial's memo, which
    holds each opaque leaf's polynomial from the draw on, so a slot object
    they share is evaluated once: the compose and Poly.subst calls of
    check_relation(rule, 20, 0) are pinned below those of the same trials
    evaluated apart, each side instantiated and evaluated with a memo of
    its own."""
    counts = collections.Counter()
    compose, subst = evaluation.compose, Poly.subst

    def counted_compose(f, g, permissive=False):
        counts["compose"] += 1
        return compose(f, g, permissive=permissive)

    def counted_subst(p, args):
        counts["subst"] += 1
        return subst(p, args)
    monkeypatch.setattr(evaluation, "compose", counted_compose)
    monkeypatch.setattr(Poly, "subst", counted_subst)
    assert check_relation(rule, 20, 0).verdict == "Verified"
    assert (counts["compose"], counts["subst"]) == (composes, substs)
    counts.clear()
    rng = random.Random(f"0:{rule}")
    for k in range(20):
        ctx = Ctx(rng, Orientation.UPPER, k)
        sides = CATALOGUE[rule](ctx)
        for side in sides:
            evaluation.eval_term(evaluation.instantiate(side, ctx.inst), True)
    assert (counts["compose"], counts["subst"]) == apart


@pytest.mark.parametrize("orientation", list(Orientation))
def test_a_side_evaluates_as_its_instantiation(orientation):
    """Each side of every rule's 20 trials at seed 0, evaluated through the
    trial's memo with its opaque leaves' polynomials entered as drawn,
    equals the instantiated side evaluated alone, partial flag included."""
    with_slots = 0
    for rule in ALL_RULES:
        rng = random.Random(f"0:{rule}")
        for k in range(20):
            ctx = Ctx(rng, orientation, k)
            for side in CATALOGUE[rule](ctx):
                got = ctx.evaluate(side)
                want = evaluation.eval_term(evaluation.instantiate(side, ctx.inst), True,
                                            orientation)
                assert got == want and got.is_partial == want.is_partial, (rule, k)
            with_slots += bool(ctx.inst)
    assert with_slots > 300, with_slots


@pytest.mark.parametrize("seed", [0, 4])
def test_r17_evaluates_its_term_once(monkeypatch, seed):
    """R17's builder evaluates its smooth term t through the trial's memo,
    and t is the trial's left side, so check_relation evaluates it from the
    memo: 27 compositions, where a builder with a memo of its own ran 34."""
    calls = [0]
    compose = evaluation.compose

    def counted(f, g, permissive=False):
        calls[0] += 1
        return compose(f, g, permissive=permissive)
    monkeypatch.setattr(evaluation, "compose", counted)
    assert check_relation("R17", 20, seed).verdict == "Verified"
    assert calls[0] == 27


def test_a_slot_both_sides_hold_is_instantiated_into_one_object():
    rng = random.Random("0:R2")
    while True:  # R2: (<x, ..., x> . diag) against (diag . x)
        ctx = Ctx(rng, Orientation.UPPER, 0)
        lhs, rhs = CATALOGUE["R2"](ctx)
        if ctx.inst:
            break
    both = evaluation.instantiate(TupleT((lhs, rhs)), ctx.inst)
    assert both.items[0].left.items[0] is both.items[1].right
    assert both.items[1].right is not rhs.right


def test_partial_compositions_stay_bounded(monkeypatch):
    """Partial compositions over check_all(3, 0), counted at the one
    substitution that every guarded composition runs.  The bound is the
    count when the guard began deciding affine components exactly (57 of
    552; the enclosure alone tagged 293): a guard that falls back to
    being conservative fails here."""
    counts = collections.Counter()

    def counted(f, g, uncertified):
        out = substitute(f, g, uncertified)
        counts["compositions"] += 1
        counts["partial"] += out.is_partial
        return out

    substitute = polynomials._substitute
    monkeypatch.setattr(polynomials, "_substitute", counted)
    check_all(3, 0)
    assert counts["compositions"] > 0
    assert counts["partial"] <= 57, counts
