"""The README's command-line examples run as stated.

Every ``idcalc`` line of the README's "Command line" block whose comment
states a result runs in process (``idcalc`` is ``idcalc.cli:main``) in a
temporary directory holding the files its comment names.  A comment may
state:

- ``-> TEXT``: the stdout, stripped;
- ``exit N``: the exit code (0 otherwise);
- ``steps: JSON``: the ``steps`` of the JSON printed;
- ``JSON report``: a JSON report written to ``relation_report.json``;
- ``stderr: TEXT``: how stderr starts;
- ``name.txt: `content```: a file the example reads.
"""

import json
import os
import re
import shlex

import pytest

from idcalc.cli import main

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
STATES = re.compile(r"-> |exit \d|steps: |JSON report|stderr: ")


def _examples():
    """(command, comment) of every example whose comment states a result."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    out = []
    for line in block.splitlines():
        command, _, comment = (part.strip() for part in line.partition("  #"))
        if command.startswith("idcalc ") and STATES.search(comment):
            out.append((command, comment.lstrip("# ")))
    return out


EXAMPLES = _examples()


def run_example(command: str, comment: str) -> int:
    """Write the files the comment names into the working directory, then
    run the command; its exit code."""
    for name, content in re.findall(r"(\S+\.txt): `([^`]*)`", comment):
        with open(name, "w", encoding="utf-8") as fh:
            fh.write(content + "\n")
    return main(shlex.split(command)[1:])


def test_the_stated_examples_are_found():
    commands = [command for command, _ in EXAMPLES]
    assert 'idcalc normalize-word "q1"' in commands
    assert "idcalc check-relations --orientation lower --rules R16" in commands
    assert len(commands) == 11


@pytest.mark.parametrize("command, comment", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example(tmp_path, monkeypatch, capsys, command, comment):
    monkeypatch.chdir(tmp_path)
    code = run_example(command, comment)
    out, err = capsys.readouterr()
    stated_exit = re.search(r"exit (\d+)", comment)
    assert code == (int(stated_exit[1]) if stated_exit else 0)
    stdout = re.search(r"-> (.*?)(?: \(exit \d+\))?$", comment)
    if stdout:
        assert out.strip() == stdout[1]
    steps = re.search(r"steps: (\[.*\])", comment)
    if steps:
        assert json.loads(out)["steps"] == json.loads(steps[1])
    if "JSON report" in comment:
        with open(tmp_path / "relation_report.json", encoding="utf-8") as fh:
            assert json.load(fh)
    stderr = re.search(r"stderr: (.*)$", comment)
    if stderr:
        assert err.startswith(stderr[1])
