"""Each workload's checker accepts the program's answer and rejects a
planted wrong one."""

import contextlib
import io
import random

import workloads as WL
from idcalc import cli, prederiv, words
from idcalc.polynomials import parse_polyfun

import reference as R


def test_words_rejects_a_changed_normal_form():
    w = R.parse_word("q1 D2 I3")
    nf = words.normalize(words.parse_word("q1 D2 I3"))
    assert WL.check_normal_form(w, nf, random.Random(0)) is None
    gens = str(nf).split()
    gens[0] = gens[0][0] + str(int(gens[0][1:]) + 1)
    planted = words.parse_word(" ".join(gens))
    assert words.normalize(planted) == planted  # still a normal form
    assert isinstance(WL.check_normal_form(w, planted, random.Random(0)), str)


def test_words_rejects_a_witness_that_does_not_separate():
    a, b = R.parse_word("p3 I2"), R.parse_word("p4 I2")
    good = words.NotEqual(parse_polyfun("poly 5->4 on R^5 : x1; x2; x3 x5^2; x4 x5^3"
                                        .replace("R^5", "RxRxRxRxR")))
    assert WL.check_word_eq(a, b, False, good, random.Random(0)) is None
    bad = words.NotEqual(parse_polyfun("poly 1->1 on R : 1 x1"))
    assert isinstance(WL.check_word_eq(a, b, False, bad, random.Random(0)), str)
    # a pair the table proves equal must never be answered NotEqual
    q, d = R.parse_word("q1 D1"), R.parse_word("D2 q1")
    assert isinstance(WL.check_word_eq(q, d, True, good, random.Random(0)), str)
    assert WL.check_word_eq(q, d, True, words.Unknown(), random.Random(0)) == \
        WL.Failed("nf_incomplete")


def test_germs_rejects_a_vector_that_does_not_annihilate():
    rng = random.Random(5)
    g = WL.random_germ(rng, 3, 2, True)
    basis = prederiv.vanishing_space(g.core)
    canon = prederiv.canonical_direction(g.core, g.u)
    assert WL.check_vanishing(g, (basis, canon)) is None
    j = next(j for j in range(g.l) if not R.annihilates(g.z, [int(k == j) for k in range(g.l)]))
    planted = [tuple(c + (k == j) for k, c in enumerate(basis[0]))] + basis[1:]
    assert isinstance(WL.check_vanishing(g, (planted, canon)), str)


def test_sphere_rejects_a_missing_row(tmp_path):
    path = tmp_path / "sweep.csv"
    with contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["comb-sphere", "--grid", str(WL.GRID), "--out", str(path)]) == 0
    expected = len(WL.grid_points())
    assert WL.check_sweep_csv(str(path), expected) is None
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:100] + lines[101:]) + "\n")
    assert isinstance(WL.check_sweep_csv(str(path), expected), str)
