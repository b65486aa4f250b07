import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import idcalc
from idcalc import sphere, words
from idcalc.cli import main
from idcalc.relations import CATALOGUE
from idcalc.terms import MAX_TERM_DEPTH, format_term
from idcalc.words import parse_word, relation_step
from test_evaluation import REFUSED_AFTER_AN_ERROR, _guard_then_leaf
from test_words import _count_draws


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


@pytest.mark.parametrize("word1, word2, witness, mismatch", [
    # both results are 0; they differ only in domain, R^2 against R^3
    ("D1", "I1", "poly 2->1 on RxR : 0", "signature"),
    ("q1", "Q1", "poly 2->1 on RxR : 3 x1^2 x2 + 1 x2 + 1", "value"),
])
def test_word_eq_json_names_the_mismatch(capsys, word1, word2, witness, mismatch):
    """A NotEqual under --json says whether the two words' actions on the
    witness differ in signature or only in value; the text line does not."""
    code, out, err = run(capsys, "word-eq", word1, word2, "--json")
    assert (code, json.loads(out), err) == \
        (2, {"verdict": "NotEqual", "witness": witness, "mismatch": mismatch}, "")
    code, out, _ = run(capsys, "word-eq", word1, word2)
    assert (code, out) == (2, f"NotEqual (witness {witness})\n")


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


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_eval_permissive_prints_the_result_before_partial_in_one_file(tmp_path, unbuffered):
    """The README example with both streams redirected to one file: the
    result line comes first, whether stdout is block-buffered or not."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(idcalc.__file__)))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=src, **({"PYTHONUNBUFFERED": "1"} if unbuffered else {}))
    term = "({poly 1->1 on (0,1) : 1 x1} . {poly 1->1 on R : 2 x1})"
    out = tmp_path / "f"
    with open(out, "w") as fh:
        subprocess.run([sys.executable, "-m", "idcalc.cli", "eval", "--permissive", term],
                       stdout=fh, stderr=subprocess.STDOUT, check=True, timeout=60, env=env)
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0] == "poly 1->1 on R : 2 x1" and lines[1].startswith("partial: ")


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


@pytest.mark.parametrize("definition, message", REFUSED_AFTER_AN_ERROR,
                         ids=["missing", "vector", "domain"])
def test_eval_reports_the_instantiation_refusal_before_an_evaluation_error(
        tmp_path, capsys, definition, message):
    """The strict guard of the first item fails before the leaf c is
    reached; the refusal of the instantiation is the error line."""
    env = tmp_path / "env.txt"
    env.write_text("c : (0,1)\n")
    inst = tmp_path / "inst.txt"
    inst.write_text(definition + "\n")
    code, out, err = run(capsys, "eval", format_term(_guard_then_leaf()), "--env", str(env),
                         "--inst", str(inst))
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_eval_refuses_missing_names_first(tmp_path, capsys):
    """Missing names come first, as one sorted list, though the leaf a is
    refused before them in preorder."""
    env = tmp_path / "env.txt"
    env.write_text("a : (0,1)\nb : (0,1)\nz : (0,1)\n")
    inst = tmp_path / "inst.txt"
    inst.write_text("a = poly 1->2 on (0,1) : 1 x1; 1 x1\n")
    code, out, err = run(capsys, "eval", "<a, z, ({poly 1->1 on R : 1 x1} . b), z>",
                         "--env", str(env), "--inst", str(inst))
    assert (code, out, err) == (1, "", "error: instantiation misses ['b', 'z']\n")


INLINE_CASES = [
    ("[I1] c", "poly 1->1 on (0,1) : 1 x1^2"),
    ("(({poly 2->1 on RxR : 1 x1 + 1 x2} . <c, ({poly 1->1 on R : 3 x1^2} . c)>)"
     " . {poly 1->2 on (0,1) : 1 x1; 1 x1})", "poly 1->1 on (0,1) : -1/2 x1^2 + 1"),
]


@pytest.mark.parametrize("term, definition", INLINE_CASES, ids=["readme", "pointwise"])
def test_eval_inst_prints_what_the_inline_literals_print(tmp_path, capsys, term, definition):
    """eval --inst of a term equals eval of the term with each opaque name
    written as its inline literal: the README example, and a pointwise sum
    that holds the leaf c twice."""
    env = tmp_path / "env.txt"
    env.write_text("c : (0,1)\n")
    inst = tmp_path / "inst.txt"
    inst.write_text(f"c = {definition}\n")
    for flags in ([], ["--json"]):
        got = run(capsys, "eval", term, "--env", str(env), "--inst", str(inst), *flags)
        inline = run(capsys, "eval", re.sub(r"\bc\b", "{" + definition + "}", term), *flags)
        assert got == inline and got[0] == 0 and got[1]


def test_eval_with_an_empty_instantiation_file(tmp_path, capsys):
    env = tmp_path / "env.txt"
    env.write_text("c : (0,1)\n")
    inst = tmp_path / "inst.txt"
    inst.write_text("# no definitions\n")
    code, out, err = run(capsys, "eval", "[I1] c", "--env", str(env), "--inst", str(inst))
    assert (code, out) == (1, "")
    assert err == "error: opaque generator 'c' cannot be evaluated; instantiate it first\n"


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


def test_check_relations_rules_without_ids_is_a_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "check-relations", "--rules", "--trials", "1")
    assert (code, out) == (1, "")
    assert err.splitlines() == ["error: argument --rules: expected at least one argument"]
    assert list(tmp_path.iterdir()) == []


def test_typecheck_has_no_permissive_option(capsys):
    """Typing has one rule: a composition's inner codomain must match its
    outer domain's dimension."""
    term = "({poly 2->1 on RxR : 1 x1} . {poly 1->1 on R : 2 x1})"
    code, out, err = run(capsys, "typecheck", "--permissive", term)
    assert (code, out) == (1, "")
    assert err.splitlines() == ["error: unrecognized arguments: --permissive"]
    code, out, err = run(capsys, "typecheck", term)
    assert (code, out) == (1, "")
    assert err.splitlines() == ["error: composition dimension mismatch: inner codomain 1, "
                                "outer domain dimension 2"]


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_word_eq_rejects_nonpositive_trials(capsys, trials):
    code, out, err = run(capsys, "word-eq", "q1", "q2", "--trials", trials)
    assert code == 1
    assert out == ""
    assert err.strip() == f"error: trials must be >= 1, got {trials}"


def test_word_eq_refuted_at_once_under_huge_trials(capsys, monkeypatch):
    """--trials bounds the draws and allocates nothing: a pair that the
    first witness refutes returns at once, after the 12 kept witnesses."""
    draws = _count_draws(monkeypatch)
    code, out, _ = run(capsys, "word-eq", "D1 I1", "D2 I1", "--trials", str(10**30))
    assert code == 2 and out.startswith("NotEqual")
    assert len(draws) == 12


_WORD_ALPHABET = st.sampled_from("IDpqQ0123456789 \tx-[(")
_WORD_TOKEN = st.builds("{}{}".format, st.sampled_from("IDpqQ"), st.integers(0, 1001))
_WORD_TEXT = st.one_of(st.lists(_WORD_TOKEN, max_size=6).map(" ".join),
                       st.text(_WORD_ALPHABET, max_size=30), st.text(max_size=12))


def _exit_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@settings(max_examples=200, deadline=None)
@given(_WORD_TEXT, _WORD_TEXT, st.integers(1, 3), st.integers(-2**70, 2**70), st.booleans())
@example("", "--", 1, 0, False)  # argparse struck the second "--", leaving word2 []
def test_any_word_text_exits_0_1_or_2(a, b, trials, seed, as_json):
    """Any text given to normalize-word and word-eq exits 0, 1 or 2 and
    raises nothing; the texts follow `--`, so one starting with `-` is a
    word too."""
    flags = ["--json"] if as_json else []
    assert _exit_code(["normalize-word", *flags, "--", a]) in (0, 1)
    assert _exit_code(["word-eq", "--trials", str(trials), "--seed", str(seed), *flags,
                       "--", a, b]) in (0, 1, 2)


def _exit_code_reading(argv, stdin_text):
    """_exit_code with stdin holding stdin_text, for a text argument `-`."""
    with mock.patch("sys.stdin", io.StringIO(stdin_text)):
        return _exit_code(argv)


_TERM_LEAF = st.sampled_from([
    "c", "d", "x", "{poly 1->1 on R : 1 x1}", "{poly 1->1 on (0,1) : 1 x1^2}",
    "{poly 2->1 on RxR : 1 x1 x2}", "{poly 0->1 on R0 : 1}", "{poly 1->2 on R : 1 x1; 2}"])
_ACTION = st.sampled_from(["I1", "D2", "p1", "q1", "Q2", "I1 D1", "I1001", ""])
_TERM_TEXT = st.one_of(
    st.recursive(_TERM_LEAF, lambda t: st.one_of(
        st.builds("({} . {})".format, t, t),
        st.lists(t, min_size=1, max_size=3).map(lambda ts: "<" + ", ".join(ts) + ">"),
        st.builds("[{}] {}".format, _ACTION, t)), max_leaves=8),
    st.lists(st.one_of(_TERM_LEAF, _ACTION, st.sampled_from("()<>[]{}.,")),
             max_size=12).map(" ".join),
    st.text(st.sampled_from("()<>[]{}.,IDpqQ0123456789 xcd_-^:;/R"), max_size=40),
    st.text(max_size=12))


@pytest.fixture(scope="module")
def opaque_env(tmp_path_factory):
    path = tmp_path_factory.mktemp("env") / "env.txt"
    path.write_text("c : (0,1)\nd : RxR\n", encoding="utf-8")
    return str(path)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["parse", "typecheck", "normalize-term"]), _TERM_TEXT, _TERM_TEXT,
       st.booleans(), st.booleans())
def test_any_term_text_exits_0_or_1(opaque_env, command, text, stdin_text, with_env, as_json):
    """Any term text given to parse, typecheck and normalize-term exits 0
    or 1 and raises nothing, with and without an environment declaring
    the opaque names c and d; the text follows `--`, and a text `-` reads
    stdin."""
    flags = (["--env", opaque_env] if with_env else []) + (["--json"] if as_json else [])
    assert _exit_code_reading([command, *flags, "--", text], stdin_text) in (0, 1)


_CORE_TEXT = st.sampled_from([
    "poly 1->1 on (-1,1) : 1 x1", "poly 1->2 on (-1,1) : 1 x1; 1 x1^2",
    "poly 2->2 on (-1,1)x(-1,1) : 1 x1; 0", "poly 2->1 on RxR : 1 x1 x2 + 3 x2^1000",
    "poly 1->1 on (0,1) : 1 x1", "poly 1->1 on R : 1 x1 + 1", "poly 0->2 on R0 : 0; 0"])
_ENTRY_TEXT = st.sampled_from(["1", "0", "-1/2", "7/3"])
_SUMMAND_TEXT = st.builds(
    "D{{ core={}; u=({}); }}".format, _CORE_TEXT,
    st.one_of(st.lists(_ENTRY_TEXT, min_size=1, max_size=2),
              st.lists(st.one_of(_ENTRY_TEXT, st.sampled_from(["1/0", "x", ""])),
                       max_size=3)).map(", ".join))
_PREDERIV_TEXT = st.one_of(
    st.lists(_SUMMAND_TEXT, min_size=1, max_size=3).map(" + ".join),
    st.sampled_from(["0[m=2]", "0[m=0]", "0[m=1001]", "0[m=2] + 0[m=2]", "-"]),
    st.lists(st.sampled_from(["D{", "core=", ";", "u=(", ")", "}", "+", ",", "1",
                              "poly 1->1 on (-1,1) : 1 x1", "0[m=1]"]),
             max_size=12).map(" ".join),
    st.text(max_size=20))


@settings(max_examples=200, deadline=None)
@given(_PREDERIV_TEXT, _PREDERIV_TEXT, st.booleans(), st.booleans(), st.booleans(),
       st.booleans())
def test_any_prederiv_text_exits_0_or_1(text, stdin_text, smooth, kernel, canonical, as_json):
    """Any pre-derivation text given to prederiv with --eval-smooth,
    --kernel and --canonical exits 0 or 1 and raises nothing; the text
    follows `--`, and a text `-` reads stdin.  --apply is left out: with
    no bound on term size, a derivative applied d times can give 2^d
    monomials."""
    flags = [flag for flag, on in (("--eval-smooth", smooth), ("--kernel", kernel),
                                   ("--canonical", canonical), ("--json", as_json)) if on]
    assert _exit_code_reading(["prederiv", *flags, "--", text], stdin_text) in (0, 1)


# a rule id, or junk, options such as -h included
_RULE = st.one_of(st.sampled_from(sorted(CATALOGUE)), st.text(max_size=8))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 2), st.lists(_RULE, max_size=3), st.integers(-2**70, 2**70),
       st.sampled_from(["upper", "lower"]), st.booleans())
@example(1, ["R1", "--trials=--"], 0, "upper", False)  # a value "--" left trials []
def test_any_check_relations_call_exits_0_1_or_2(trials, rules, seed, orientation, as_json):
    """check-relations with 1 or 2 trials, any seed, either orientation and
    rule ids mixed with junk (or every rule) exits 0, 1 or 2 and raises
    nothing; a failure's report goes to a temporary directory."""
    argv = ["check-relations", "--trials", str(trials), "--seed", str(seed),
            "--orientation", orientation] + (["--json"] if as_json else [])
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        assert _exit_code(argv + (["--rules", *rules] if rules else [])) in (0, 1, 2)


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.integers(-3, 12), st.sampled_from([sphere.MAX_GRID + 1, 10**9, 2**64])),
       st.one_of(st.floats(0, 1 / 6), st.floats()))
def test_any_comb_sphere_grid_and_eps_exits_0_or_1(grid, eps):
    """comb-sphere with --grid from -3 to 12 and any float --eps, nan and
    inf included, exits 0 or 1 and raises nothing.  A grid past MAX_GRID
    is refused before any sweep is allocated."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["comb-sphere", "--grid", str(grid), f"--eps={eps!r}"])
    assert code in (0, 1)
    if grid > sphere.MAX_GRID:
        assert code == 1
        assert err.getvalue() == f"error: grid must be <= {sphere.MAX_GRID}, got {grid}\n"


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


def _without_time(value):
    if isinstance(value, dict):
        return {k: _without_time(v) for k, v in value.items() if k != "time_ms"}
    if isinstance(value, list):
        return [_without_time(v) for v in value]
    return value


@pytest.mark.parametrize("argv", [
    ["check-relations", "--trials", "3", "--seed", "4", "--json"],
    ["check-relations", "--trials", "3", "--seed", "4", "--orientation", "lower",
     "--rules", "R14", "R15", "R16", "--json"],
    ["normalize-word", "--json", "q2 I1 D3 p2"],
    ["word-eq", "D1 I1", "D2 I1", "--json"],
], ids=["check-relations", "check-relations-lower", "normalize-word", "word-eq"])
def test_outputs_do_not_depend_on_the_hash_seed(tmp_path, argv):
    """The command run in two fresh interpreters, under PYTHONHASHSEED 0
    and 1, gives the same exit code, stderr and JSON (time_ms dropped):
    no output reads the order of a set or a str-keyed hash."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(idcalc.__file__)))
    procs = [subprocess.Popen([sys.executable, "-m", "idcalc.cli", *argv], cwd=tmp_path,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed))
             for hash_seed in ("0", "1")]
    (out0, err0), (out1, err1) = (proc.communicate(timeout=60) for proc in procs)
    assert procs[0].returncode == procs[1].returncode in (0, 2)
    assert err0 == err1
    assert _without_time(json.loads(out0)) == _without_time(json.loads(out1))


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
    # open() refuses a path holding NUL with a ValueError, not an OSError
    (["parse", "x", "--env", "a\x00b"], "cannot read 'a\\x00b': embedded null byte"),
    (["check-relations", "--trials", "1", "--rules", "R1", "--report", "a\x00b"],
     "cannot write 'a\\x00b': embedded null byte"),
], ids=["empty-factor", "empty-exponent", "dimension", "coefficient", "box-endpoint",
        "direction", "missing-env", "binary-env", "inst-is-directory", "report-dir",
        "out-dir", "nul-env", "nul-report"])
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


@pytest.mark.parametrize("argv", [["-h"], ["word-eq", "-h"],
                                  ["check-relations", "--rules", "R1", "-h"]])
def test_help_still_exits_0(capsys, argv):
    assert main(argv) == 0
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
    # --trials is bounded by relations.MAX_TRIALS, however large the number asked for
    (["check-relations", "--trials", "1001", "--rules", "R7"], 1,
     "error: trials must be <= 1000, got 1001"),
    (["check-relations", "--trials", str(10**30)], 1,
     f"error: trials must be <= 1000, got {10**30}"),
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
