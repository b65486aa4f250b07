import json
import os
import subprocess
import sys

import pytest

import idcalc
from idcalc import sphere, words
from idcalc.cli import main
from idcalc.terms import MAX_TERM_DEPTH
from idcalc.words import parse_word, relation_step


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_normalize_word(capsys):
    code, out, _ = run(capsys, "normalize-word", "q1")
    assert code == 0
    assert out.strip() == "D2 I1"


@pytest.mark.parametrize("text", ["q1", "I1 q2 p1 p4", "D1 D2 I1 I2 Q3"])
def test_normalize_word_json_steps_replay(capsys, text):
    code, out, _ = run(capsys, "normalize-word", text, "--json")
    assert code == 0
    payload = json.loads(out)
    cur = parse_word(text)
    for pos, rule_id, direction in payload["steps"]:
        cur = relation_step(cur, pos, rule_id, direction)
    assert str(cur) == payload["word"]
    if text == "q1":
        assert payload == {"word": "D2 I1", "steps": [[0, "leftproj.i", "forward"]]}


def test_normalize_word_step_cap_is_one_error_line(capsys, monkeypatch):
    monkeypatch.setattr(words, "_NORMALIZE_CAP", 3)
    code, out, err = run(capsys, "normalize-word", "I1 I2 I3 I4")
    assert code == 1
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "step cap" in lines[0]


def test_word_eq_equal(capsys):
    code, out, _ = run(capsys, "word-eq", "q1", "D2 I1")
    assert code == 0
    assert out.strip() == "Equal"


def test_word_eq_not_equal(capsys):
    code, out, _ = run(capsys, "word-eq", "D1 I1", "D2 I1")
    assert code == 2
    assert out.startswith("NotEqual")


def test_word_eq_unknown(capsys):
    code, out, err = run(capsys, "word-eq", "p2 p3", "p2 p2")
    assert (code, out, err) == (2, "Unknown\n", "")
    code, out, err = run(capsys, "word-eq", "p2 p3", "p2 p2", "--json")
    assert (code, json.loads(out), err) == (2, {"verdict": "Unknown"}, "")


def test_parse_and_eval(capsys):
    code, out, _ = run(capsys, "eval", "[I1] {poly 1->1 on R : 1 x1^2}")
    assert code == 0
    assert out.strip() == "poly 2->1 on RxR : -1/3 x1^3 + 1/3 x2^3"


def test_eval_json_roundtrip(capsys):
    code, out, _ = run(capsys, "eval", "{poly 1->1 on (0,1) : 1 x1}", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["arity"] == 1 and payload["codim"] == 1 and payload["partial"] is False


@pytest.mark.parametrize("term, partial", [
    ("({poly 1->1 on (0,1) : 1 x1} . {poly 1->1 on R : 2 x1})", True),
    ("({poly 1->1 on (0,1) : 1 x1} . {poly 1->1 on (0,1) : 1 x1})", False),
], ids=["partial", "certified"])
def test_eval_permissive_reports_the_partial_tag(capsys, term, partial):
    code, out, err = run(capsys, "eval", "--permissive", term)
    assert code == 0
    assert out.strip() == ("poly 1->1 on R : 2 x1" if partial else
                           "poly 1->1 on (0,1) : 1 x1")
    if partial:
        assert err.startswith("partial: ") and len(err.splitlines()) == 1
    else:
        assert err == ""
    code, out, err = run(capsys, "eval", "--permissive", term, "--json")
    assert code == 0 and err == ""
    assert json.loads(out)["partial"] is partial


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


def test_strict_composition_into_an_equal_open_box_succeeds(capsys):
    """(0,1) maps into (0,1): the guard decides affine components exactly,
    so strict composition through a coordinate pick is certified."""
    code, out, err = run(capsys, "eval",
                         "({poly 1->1 on (0,1) : 1 x1} . {poly 1->1 on (0,1) : 1 x1})")
    assert code == 0 and err == ""
    assert out.strip() == "poly 1->1 on (0,1) : 1 x1"


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_coefficient_too_long_to_print_is_one_error_line(capsys, json_flag):
    sevens = "7" * 4000  # squared, it has 7,999 digits
    code, out, err = run(capsys, "eval", *json_flag,
                         f"({{poly 1->1 on R : 1 x1^2}} . {{poly 1->1 on R : {sevens} x1}})")
    assert code == 1 and out == ""
    lines = err.strip().splitlines()
    message = (f"a coefficient has more than {sys.get_int_max_str_digits()} digits "
               "and cannot be printed")
    if json_flag:
        assert [json.loads(line)["message"] for line in lines] == [message]
    else:
        assert lines == ["error: " + message]


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("query, core, u", [
    # Jac(z, 0) u = 7...7^2 has 7,999 digits
    ("--eval-smooth", f"poly 1->1 on (-1,1) : {'7' * 4000} x1", "7" * 4000),
    # u minus its projection onto (1, 1) has denominators of 8,000 digits
    ("--canonical", "poly 2->1 on (-1,1)x(-1,1) : 1 x1 + -1 x2",
     f"1/{'7' * 4000}, 1/{'3' * 3999}1"),
], ids=["eval-smooth", "canonical"])
def test_prederiv_vector_too_long_to_print_is_one_error_line(capsys, json_flag, query, core, u):
    code, out, err = run(capsys, "prederiv", f"D{{ core={core}; u=({u}); }}", query, *json_flag)
    assert code == 1 and out == ""
    lines = err.strip().splitlines()
    message = (f"a coefficient has more than {sys.get_int_max_str_digits()} digits "
               "and cannot be printed")
    if json_flag:
        assert [json.loads(line) for line in lines] == [{"error": "PolyError",
                                                         "message": message}]
    else:
        assert lines == ["error: " + message]


@pytest.mark.parametrize("literal", ["7" * 4400, "1/" + "7" * 4400, "0." + "7" * 4400],
                         ids=["integer", "fraction", "decimal"])
def test_over_long_literal_is_named_and_cut_short(capsys, literal):
    code, out, err = run(capsys, "eval", f"{{poly 1->1 on R : {literal} x1}}")
    assert code == 1 and out == ""
    lines = err.strip().splitlines()
    assert lines == [f"error: rational literal too long ({len(literal)} characters, at most "
                     f"{sys.get_int_max_str_digits()} digits per integer): {literal[:20]!r}... "
                     "at offset 18 in term text"]


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


def test_check_relations_text_is_reproducible(capsys):
    """Two runs with the same trials and seed print the same bytes: the
    text report carries no timings (the JSON report keeps time_ms)."""
    first = run(capsys, "check-relations", "--trials", "2", "--seed", "7")
    second = run(capsys, "check-relations", "--trials", "2", "--seed", "7")
    assert first[0] == second[0] == 0
    assert first[1].encode() == second[1].encode()
    lines = first[1].splitlines()
    assert lines[0] == "seed=7 trials=2 orientation=upper" and len(lines) == 37
    assert all(line.endswith(" Verified trials=2") for line in lines[1:])


def test_check_relations_failure_exit_and_report(tmp_path, capsys):
    report = tmp_path / "rep.json"
    code, out, _ = run(capsys, "check-relations", "--trials", "2", "--seed", "0",
                       "--rules", "R16", "--orientation", "lower",
                       "--report", str(report))
    assert code == 2
    assert "R16 Failed" in out
    payload = json.loads(report.read_text())
    assert payload[0]["witness"]["trial"] == 0


def test_check_relations_json_verified(capsys):
    code, out, _ = run(capsys, "check-relations", "--rules", "R7", "--trials", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["seed"], payload["trials"], payload["orientation"]) == (0, 1, "upper")
    assert [(r["rule"], r["verdict"]) for r in payload["reports"]] == [("R7", "Verified")]
    assert payload["report"] is None


def test_check_relations_json_failure(tmp_path, capsys):
    report = tmp_path / "rep.json"
    code, out, _ = run(capsys, "check-relations", "--orientation", "lower", "--rules", "R16",
                       "--trials", "2", "--report", str(report), "--json")
    assert code == 2
    payload = json.loads(out)
    assert payload["orientation"] == "lower"
    assert payload["report"] == str(report)
    assert payload["reports"][0]["verdict"] == "Failed"
    assert payload["reports"] == json.loads(report.read_text())


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


def test_prederiv_apply_of_the_zero_prederivation(capsys):
    """The zero pre-derivation gives no germ: text mode says so in one
    line, and --json gives an empty list."""
    argv = ["prederiv", "0[m=2]", "--apply", "poly 2->1 on RxR : 1 x1"]
    assert run(capsys, *argv) == (0, "apply none\n", "")
    code, out, err = run(capsys, *argv, "--json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"prederiv": "0[m=2]", "apply": []}


def test_comb_sphere_csv(tmp_path, capsys):
    out_path = tmp_path / "grid.csv"
    code, out, err = run(capsys, "comb-sphere", "--grid", "25",
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


def test_check_relations_unknown_rule_is_a_domain_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "check-relations", "--rules", "R7", "R99", "--trials", "1")
    assert code == 1
    assert out == ""
    assert err.strip().splitlines() == ["error: unknown rule 'R99'"]
    assert list(tmp_path.iterdir()) == []


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


def test_comb_sphere_grid_above_limit_is_one_error_line(capsys):
    grid = str(sphere.MAX_GRID + 1)
    code, out, err = run(capsys, "comb-sphere", "--grid", grid)
    assert code == 1
    assert out == ""
    assert err.strip().splitlines() == [f"error: grid must be <= {sphere.MAX_GRID}, got {grid}"]


def test_cli_import_does_not_load_numpy():
    # numpy is the float layer's dependency; only the comb-sphere branch
    # imports it, so every other subcommand starts without it
    src = os.path.dirname(os.path.dirname(os.path.abspath(idcalc.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, idcalc.cli; print('numpy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, check=True, timeout=60, env=env)
    assert result.stdout.strip() == "False"


def test_comb_sphere_smallest_grid_with_interior_point(capsys):
    code, out, err = run(capsys, "comb-sphere", "--grid", "3")
    assert code == 0
    assert len(out.strip().splitlines()) == 2  # header and the centre point
    assert "vanishing-radius=" in err


@pytest.mark.parametrize("argv, location", [
    (["eval", "{poly 1->1 on R : 1/0 x1}"], "18 in term"),
    (["eval", "{poly 1->1 on (1/0,2) : 1 x1}"], "15 in term"),
    (["prederiv", "D{ core=poly 1->2 on (-1,1) : 1 x1; 1 x1^2; u=(1/0); }"],
     "47 in pre-derivation"),
], ids=["coefficient", "box-endpoint", "direction"])
def test_zero_denominator_is_a_domain_error(capsys, argv, location):
    code, _, err = run(capsys, *argv)
    assert code == 1
    lines = err.strip().splitlines()
    assert lines == [f"error: zero denominator in '1/0' at offset {location} text"]


@pytest.mark.parametrize("text, offset", [("{poly 1->1 on (0,1e1000000) : 1 x1}", 17),
                                          ("{poly 1->1 on R : 1e1000000 x1}", 18)],
                         ids=["box-endpoint", "coefficient"])
def test_exponent_notation_is_one_error_line(capsys, text, offset):
    code, out, err = run(capsys, "eval", text)
    assert code == 1
    assert out == ""
    assert err.strip().splitlines() == [
        f"error: not a rational number: '1e1000000' at offset {offset} in term text"]


@pytest.mark.parametrize("argv, token", [
    (["eval", "{poly 1->1 on R : 1 x}"], "'x'"),
    (["eval", "{poly 1->1 on R : 1 x1^}"], "'x1^'"),
    (["eval", "{poly a->1 on R : 1 x1}"], "'a->1'"),
    (["eval", "{poly 1->1 on R : abc x1}"], "'abc'"),
    (["eval", "{poly 1->1 on (a,b) : 1 x1}"], "'a'"),
    (["prederiv", "D{ core=poly 1->1 on (-1,1) : 1 x1; u=(a); }"], "'a'"),
    (["parse", "f", "--env", "{tmp}/missing.txt"], "missing.txt"),
    (["parse", "f", "--env", "{tmp}/binary.txt"], "binary.txt"),
    (["eval", "{poly 1->1 on R : 1 x1}", "--inst", "{tmp}"], "Is a directory"),
    (["check-relations", "--rules", "R7", "--trials", "1",
      "--report", "{tmp}/no/dir/r.json"], "r.json"),
    (["comb-sphere", "--grid", "3", "--out", "{tmp}/no/dir/o.csv"], "o.csv"),
], ids=["empty-factor", "empty-exponent", "dimension", "coefficient", "box-endpoint",
        "direction", "missing-env", "binary-env", "inst-is-directory", "report-dir",
        "out-dir"])
def test_malformed_input_is_one_error_line(tmp_path, capsys, argv, token):
    (tmp_path / "binary.txt").write_bytes(b"c : (0,1)\n\xff\xfe\n")
    code, out, err = run(capsys, *(a.replace("{tmp}", str(tmp_path)) for a in argv))
    assert code == 1
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and token in lines[0], lines


LEAF = "{poly 1->1 on R : 1 x1}"
NESTINGS = {
    "action": lambda d: "[D1] " * d + LEAF,
    "composition": lambda d: "(" * d + LEAF + f" . {LEAF})" * d,
    "tuple": lambda d: "<" * d + LEAF + ">" * d,
}
TERM_COMMANDS = ["parse", "typecheck", "normalize-term", "eval"]


@pytest.mark.parametrize("command", TERM_COMMANDS)
@pytest.mark.parametrize("shape", sorted(NESTINGS))
def test_term_nested_to_the_bound_passes(capsys, shape, command):
    code, out, err = run(capsys, command, NESTINGS[shape](MAX_TERM_DEPTH))
    assert code == 0
    assert out and err == ""


@pytest.mark.parametrize("command", TERM_COMMANDS)
@pytest.mark.parametrize("shape", sorted(NESTINGS))
def test_term_nested_past_the_bound_is_one_error_line(capsys, shape, command):
    code, out, err = run(capsys, command, NESTINGS[shape](MAX_TERM_DEPTH + 1))
    assert code == 1
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: term nests deeper than MAX_TERM_DEPTH = {MAX_TERM_DEPTH}")


@pytest.mark.parametrize("argv, message", [
    (["word-eq", "q1"], "error: the following arguments are required: word2"),
    (["check-relations", "--trials", "x"], "error: argument --trials: invalid int value: 'x'"),
    (["normalize-word", "q1", "--frobnicate"], "error: unrecognized arguments: --frobnicate"),
    ([], "error: the following arguments are required: command"),
])
def test_usage_error_exits_1_with_one_line(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.strip().splitlines() == [message]


@pytest.mark.parametrize("argv, message", [
    (["word-eq", "q1", "--json"], "the following arguments are required: word2"),
    (["check-relations", "--json", "--trials", "x"], "argument --trials: invalid int value: 'x'"),
    (["word-eq", "q1", "--js"], "the following arguments are required: word2"),
])
def test_usage_error_under_json_is_one_json_object(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert json.loads(err) == {"error": "IdcalcError", "message": message}


@pytest.mark.parametrize("argv, message", [
    (["normalize-word", "D1 X3"], "bad generator token 'X3' at offset 3 in word text"),
    (["normalize-word", "D1  Dx"], "bad generator index in 'Dx' at offset 4 in word text"),
    (["parse", "(mystery . {poly 1->1 on R : 1 x1})"],
     "opaque generator 'mystery' is not declared at offset 1 in term text"),
])
def test_parse_errors_name_their_offset(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.strip().splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("argv", [["-h"], ["word-eq", "-h"]])
def test_help_still_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage: idcalc" in capsys.readouterr().out


_ONE_SUMMAND = "D{ core=poly 1->1 on (-1,1) : 1 x1; u=(1); }"

# The location each refusal of the table below names, when its row's line
# does not spell it out: the line is the row's message, then this.
_LOCATIONS = {
    ("prederiv", "   "): "at offset 3 in pre-derivation text",
    ("prederiv", f"{_ONE_SUMMAND} {_ONE_SUMMAND}"): "at offset 45 in pre-derivation text",
    ("eval", "{poly 1->1 on [0,1] : 1 x1}"): "at offset 14 in term text",
    ("eval", "{poly 1->1 on (2,1) : 1 x1}"): "at offset 14 in term text",
    ("eval", "{poly 2->1 on R : 1 x1}"): "at offset 6 in term text",
    ("eval", "{poly 1->2 on R : 1 x1}"): "at offset 22 in term text",
    ("eval", "{poly 1->1 on R : 1 x3}"): "at offset 20 in term text",
    ("eval", "{poly 1->1 on R : 1 x1 + }"): "at offset 25 in term text",
    ("eval", "{pol 1->1 on R : 1 x1}"): "at offset 1 in term text",
    ("normalize-word", "D0"): "at offset 0 in word text",
}


@pytest.mark.parametrize("argv, code, expected", [
    # each input error ends in one error line and exit 1
    (["eval", "<>"], 1, "error: expected a term at offset 1 in term text"),
    (["eval", "[I1 {poly 1->1 on R : 1 x1}"], 1,
     "error: unterminated word action at offset 4 in term text"),
    (["eval", "{poly 1->1 on R : 1 x1"], 1,
     "error: unterminated inline polynomial at offset 22 in term text"),
    (["eval", "{poly 1->1 on R : 1 x1} x"], 1,
     "error: trailing input after term at offset 24 in term text"),
    (["eval", "({poly 1->1 on R : 1 x1} {poly 1->1 on R : 1 x1})"], 1,
     "error: expected '.' at offset 25 in term text"),
    (["prederiv", "D{ core=nonsense }"], 1,
     "error: not a polynomial function literal: 'nonsense' at offset 8 in pre-derivation text"),
    (["prederiv", "   "], 1, "error: empty pre-derivation text"),
    (["prederiv", f"{_ONE_SUMMAND} {_ONE_SUMMAND}"], 1,
     "error: expected '+' between summands"),
    (["prederiv", f"{_ONE_SUMMAND} + {_ONE_SUMMAND}", "--canonical"], 1,
     "error: canonical direction needs exactly one summand"),
    (["eval", "{poly 1->1 on [0,1] : 1 x1}"], 1, "error: bad interval syntax: '[0,1]'"),
    (["eval", "{poly 1->1 on (2,1) : 1 x1}"], 1, "error: empty interval (2,1)"),
    (["eval", "{poly 2->1 on R : 1 x1}"], 1, "error: declared arity does not match the domain"),
    (["eval", "{poly 1->2 on R : 1 x1}"], 1, "error: expected 2 components, found 1"),
    (["eval", "{poly 1->1 on R : 1 x3}"], 1, "error: variable x3 out of range for arity 1"),
    (["eval", "{poly 1->1 on R : 1 x1 + }"], 1, "error: empty monomial"),
    (["eval", "{pol 1->1 on R : 1 x1}"], 1,
     "error: not a polynomial function literal: 'pol 1->1 on R : 1 x1'"),
    (["normalize-word", "D0"], 1, "error: generator index must be >= 1"),
    (["comb-sphere", "--grid", "3", "--eps", "0.16666666666666663"], 1,
     "error: bridge arcs are not strictly increasing"),
    # and two inputs that succeed: the empty word, a coefficient-free monomial
    (["normalize-word", "1"], 0, "1"),
    (["eval", "{poly 1->1 on R : x1}"], 0, "poly 1->1 on R : 1 x1"),
    # a bad factor of an inline polynomial is located in the term text
    (["eval", "{poly 1->1 on R : 1 x}"], 1,
     "error: bad monomial factor 'x' at offset 20 in term text"),
    (["eval", "{poly 1->1 on R : 1 x1 + 2 y}"], 1,
     "error: bad monomial factor 'y' at offset 27 in term text"),
    # a text asks for at most MAX_INDEX, refused at its token before anything is built
    (["prederiv", "0[m=1000000]"], 1,
     "error: dimension '1000000' exceeds MAX_INDEX = 1000 at offset 4 in pre-derivation text"),
    (["eval", "[I99999] {poly 1->1 on R : 1 x1}"], 1,
     "error: generator index '99999' exceeds MAX_INDEX = 1000 at offset 1 in term text"),
    (["normalize-word", "D1 Q1001"], 1,
     "error: generator index '1001' exceeds MAX_INDEX = 1000 at offset 3 in word text"),
    (["eval", "{poly 1->1001 on R : 1 x1}"], 1,
     "error: dimension '1001' exceeds MAX_INDEX = 1000 at offset 9 in term text"),
    (["eval", "{poly 1->1 on R : 1 x1001}"], 1,
     "error: variable index '1001' exceeds MAX_INDEX = 1000 at offset 20 in term text"),
    (["normalize-word", "p1000"], 0, "p1000"),
    (["eval", "{poly 1->1 on R : x1^1001}"], 1,
     "error: exponent '1001' exceeds MAX_EXPONENT = 1000 at offset 21 in term text"),
])
def test_cli_error_contract(capsys, argv, code, expected):
    got, out, err = run(capsys, *argv)
    assert got == code
    at = _LOCATIONS.get(tuple(argv))
    assert (out if code == 0 else err).splitlines() == [f"{expected} {at}" if at else expected]
    assert (err if code == 0 else out) == ""



@pytest.mark.parametrize("argv, error, message", [
    # located in the text the command was given, with that text's class
    (["eval", "[I1 X2] {poly 1->1 on R : 1 x1}"], "TermError",
     "bad generator token 'X2' at offset 4 in term text"),
    (["prederiv", "D{ core=poly 1->1 on (-1,1) : 1 x; u=(1); }"], "PreDerivError",
     "bad monomial factor 'x' at offset 32 in pre-derivation text"),
    # forms the text grammar never listed
    (["normalize-word", "I1_0"], "WordError",
     "bad generator index in 'I1_0' at offset 0 in word text"),
    (["normalize-word", "D\u0663"], "WordError",
     "bad generator index in 'D\u0663' at offset 0 in word text"),
    (["normalize-word", "q+2"], "WordError",
     "bad generator index in 'q+2' at offset 0 in word text"),
    (["eval", "{poly +1->1 on R : 1 x1}"], "TermError",
     "bad dimensions '+1->1' at offset 6 in term text"),
    (["eval", "{poly 1->0_1 on R : }"], "TermError",
     "bad dimensions '1->0_1' at offset 6 in term text"),
    (["eval", "{poly 1->2 on R : ; 1 x1}"], "TermError",
     "empty monomial at offset 18 in term text"),
    (["prederiv", "D{ core=poly 1->1 on (-1,1) : 1 x1; u=(1,,); }"], "PreDerivError",
     "not a rational number: '' at offset 41 in pre-derivation text"),
    (["prederiv", "0[m=1]", "--apply", "poly 1->1 on R : 1 x1;"], "PolyError",
     "trailing input after polynomial function at offset 21 in polynomial text"),
])
def test_parse_refusals_name_their_offset_and_class(capsys, argv, error, message):
    code, out, err = run(capsys, *argv, "--json")
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": error, "message": message}


@pytest.mark.parametrize("option, lines, error, message", [
    ("--env", ["c : (0,1)", "", "# declared below", "d (0,1)"], "BoxError",
     "expected a name, then ':' at offset 2 in {path} line 4"),
    ("--env", ["c : (0,1) zz"], "BoxError",
     "trailing input after the definition at offset 10 in {path} line 1"),
    ("--inst", ["c = poly 1->1 on (0,1) : 1 x1", "  c = poly 1->1 on (0,1) : 1 y"], "PolyError",
     "bad monomial factor 'y' at offset 29 in {path} line 2"),
])
def test_definitions_file_errors_name_file_line_and_offset(tmp_path, capsys, option, lines,
                                                          error, message):
    path = tmp_path / "defs.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    env = tmp_path / "env.txt"
    env.write_text("c : (0,1)\n", encoding="utf-8")
    argv = ["eval", "c", "--json", option, str(path)]
    if option == "--inst":
        argv += ["--env", str(env)]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": error, "message": message.format(path=repr(str(path)))}
