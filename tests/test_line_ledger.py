"""The line ledger's allow-list names lines that still exist.

``tools/line_ledger.py`` lists the lines of ``src/idcalc`` that no
in-process run executes, except those its ``ALLOW`` list names with a
reason.  An entry whose text no longer matches an executable line of its
file allows nothing, so it must go when its line goes."""

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
