import json

import pytest

from idcalc.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_normalize_word(capsys):
    code, out, _ = run(capsys, "normalize-word", "q1")
    assert code == 0
    assert out.strip() == "D2 I1"


def test_word_eq_equal(capsys):
    code, out, _ = run(capsys, "word-eq", "q1", "D2 I1")
    assert code == 0
    assert out.strip() == "Equal"


def test_word_eq_not_equal(capsys):
    code, out, _ = run(capsys, "word-eq", "D1 I1", "D2 I1")
    assert code == 2
    assert out.startswith("NotEqual")


def test_parse_and_eval(capsys):
    code, out, _ = run(capsys, "eval", "[I1] {poly 1->1 on R : 1 x1^2}")
    assert code == 0
    assert out.strip() == "poly 2->1 on RxR : -1/3 x1^3 + 1/3 x2^3"


def test_eval_json_roundtrip(capsys):
    code, out, _ = run(capsys, "eval", "{poly 1->1 on (0,1) : 1 x1}", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["arity"] == 1 and payload["codim"] == 1


def test_typecheck_fragments(tmp_path, capsys):
    env = tmp_path / "env.txt"
    env.write_text("c : (0,1)\n")
    code, out, _ = run(capsys, "typecheck", "[I1] c", "--env", str(env))
    assert code == 0 and "ContinuousOK" in out
    code, out, _ = run(capsys, "typecheck", "[D1] c", "--env", str(env))
    assert code == 0 and "Illegal" in out


def test_eval_with_instantiation(tmp_path, capsys):
    env = tmp_path / "env.txt"
    env.write_text("c : (0,1)\n")
    inst = tmp_path / "inst.txt"
    inst.write_text("c = poly 1->1 on (0,1) : 1 x1^2\n")
    code, out, _ = run(capsys, "eval", "[I1] c", "--env", str(env),
                       "--inst", str(inst))
    assert code == 0
    assert out.strip() == "poly 2->1 on (0,1)x(0,1) : -1/3 x1^3 + 1/3 x2^3"


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "parse", "<oops")
    assert code == 1
    assert "error" in err


def test_guard_failure_exit_code(capsys):
    code, _, err = run(capsys, "eval",
                       "({poly 1->1 on (0,1) : 1 x1} . {poly 1->1 on R : 2})")
    assert code == 1


def test_normalize_term(capsys):
    text = "(({poly 1->1 on R : 1 x1} . {poly 1->1 on R : 2 x1}) . {poly 1->1 on R : 3 x1})"
    code, out, _ = run(capsys, "normalize-term", text)
    assert code == 0
    assert out.strip() == ("({poly 1->1 on R : 1 x1} . ({poly 1->1 on R : 2 x1}"
                           " . {poly 1->1 on R : 3 x1}))")


def test_check_relations_subset(capsys):
    code, out, _ = run(capsys, "check-relations", "--trials", "2", "--seed", "7",
                       "--rules", "R7", "R9")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("seed=7")
    assert lines[1].startswith("R7 Verified trials=2")
    assert lines[2].startswith("R9 Verified trials=2")


def test_check_relations_failure_exit_and_report(tmp_path, capsys):
    report = tmp_path / "rep.json"
    code, out, _ = run(capsys, "check-relations", "--trials", "2", "--seed", "0",
                       "--rules", "R16", "--orientation", "lower",
                       "--report", str(report))
    assert code == 2
    assert "R16 Failed" in out
    payload = json.loads(report.read_text())
    assert payload[0]["witness"]["trial"] == 0


def test_prederiv_queries(capsys):
    text = "D{ core=poly 1->2 on (-1,1) : 1 x1; 1 x1^2; u=(1); }"
    code, out, _ = run(capsys, "prederiv", text, "--eval-smooth", "--kernel",
                       "--canonical")
    assert code == 0
    assert "eval-smooth (1, 0)" in out
    assert "kernel False" in out
    assert "canonical (1)" in out


def test_prederiv_apply(capsys):
    text = "D{ core=poly 1->2 on (-1,1) : 1 x1; 1 x1^2; u=(1); }"
    code, out, _ = run(capsys, "prederiv", text, "--apply",
                       "poly 2->1 on RxR : 1 x1 + 1 x2")
    assert code == 0
    assert "apply poly 1->1 on (-1,1) : 2 x1 + 1" in out


def test_comb_sphere_csv(tmp_path, capsys):
    out_path = tmp_path / "grid.csv"
    code, out, err = run(capsys, "comb-sphere", "--n", "2", "--grid", "25",
                         "--eps", "0.1", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "y1,y2,proj1,proj2,projnorm,certificate"
    assert len(lines) > 300
    assert "vanishing-radius=" in err


def test_stdin_term(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("{poly 1->1 on R : 1 x1}"))
    code, out, _ = run(capsys, "parse", "-")
    assert code == 0
    assert out.strip() == "{poly 1->1 on R : 1 x1}"


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_check_relations_rejects_nonpositive_trials(capsys, trials):
    code, out, err = run(capsys, "check-relations", "--trials", trials,
                         "--orientation", "lower", "--rules", "R16")
    assert code == 1
    assert out == ""
    assert err.strip() == f"error: trials must be >= 1, got {trials}"


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_word_eq_rejects_nonpositive_trials(capsys, trials):
    code, out, err = run(capsys, "word-eq", "q1", "q2", "--trials", trials)
    assert code == 1
    assert out == ""
    assert err.strip() == f"error: trials must be >= 1, got {trials}"


@pytest.mark.parametrize("grid", ["0", "-1"])
def test_comb_sphere_rejects_nonpositive_grid(capsys, grid):
    code, out, err = run(capsys, "comb-sphere", "--grid", grid)
    assert code == 1
    assert out == ""
    assert err.strip() == f"error: grid must be >= 1, got {grid}"


@pytest.mark.parametrize("grid", ["1", "2"])
def test_comb_sphere_grid_without_interior_point(capsys, grid):
    code, out, err = run(capsys, "comb-sphere", "--grid", grid)
    assert code == 1
    assert err.strip() == "error: no grid point lies inside the disc"


def test_comb_sphere_smallest_grid_with_interior_point(capsys):
    code, out, err = run(capsys, "comb-sphere", "--grid", "3")
    assert code == 0
    assert len(out.strip().splitlines()) == 2  # header and the centre point
    assert "vanishing-radius=" in err


@pytest.mark.parametrize("argv", [
    ["eval", "{poly 1->1 on R : 1/0 x1}"],
    ["eval", "{poly 1->1 on (1/0,2) : 1 x1}"],
    ["prederiv", "D{ core=poly 1->2 on (-1,1) : 1 x1; 1 x1^2; u=(1/0); }"],
], ids=["coefficient", "box-endpoint", "direction"])
def test_zero_denominator_is_a_domain_error(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 1
    lines = err.strip().splitlines()
    assert lines == ["error: zero denominator in '1/0'"]
