"""The line ledger's allow-list and promise list name what still exists.

``tools/line_ledger.py`` lists the lines of ``src/idcalc`` that no
in-process run executes, except those its ``ALLOW`` list names with a
reason.  An entry whose text no longer matches an executable line of its
file allows nothing, so it must go when its line goes.  The ledger also
lists the functions that no product run enters, except those its
``PROMISED`` list names with the README phrase that promises them and a
reason.  Such an entry must name a function of the package, quote the
README, and hold no allow-listed line."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _ledger():
    spec = importlib.util.spec_from_file_location(
        "line_ledger", os.path.join(ROOT, "tools", "line_ledger.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_allow_list_entry_matches_an_executable_line_and_gives_a_reason():
    ledger = _ledger()
    assert ledger.ALLOW
    for fname, text, reason in ledger.ALLOW:
        path = os.path.join(ROOT, "src", "idcalc", fname)
        with open(path, encoding="utf-8") as fh:
            lines = [line.strip() for line in fh]
        executable = ledger.executable_lines(path)
        assert any(lines[n - 1] == text for n in executable), (fname, text)
        assert reason.strip(), (fname, text)


def test_every_promised_function_exists_quotes_the_readme_and_gives_a_reason():
    ledger = _ledger()
    assert ledger.PROMISED
    package = os.path.join(ROOT, "src", "idcalc")
    defined = {}
    for fname in sorted(os.listdir(package)):
        if fname.endswith(".py"):
            defined.update(ledger.functions(os.path.join(package, fname)))
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = " ".join(fh.read().split())
    allowed = {(fname[:-3], text) for fname, text, _ in ledger.ALLOW}
    names = [name for name, _, _ in ledger.PROMISED]
    assert len(names) == len(set(names))
    for name, phrase, reason in ledger.PROMISED:
        assert defined.get(name), name
        assert " ".join(phrase.split()) in readme, (name, phrase)
        assert reason.strip(), name
        # no allow-listed line lies in a promised function
        module = name.split(".")[0]
        with open(os.path.join(package, module + ".py"), encoding="utf-8") as fh:
            lines = [line.strip() for line in fh]
        assert not {(module, lines[n - 1]) for n in defined[name]} & allowed, name
