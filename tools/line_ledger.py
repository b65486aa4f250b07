"""Line ledger: which lines of src/idcalc never run.

    python3 tools/line_ledger.py

Run from the root of a checkout.  The script runs the tier-1 suite
(``tests/``) in this process under ``sys.settrace``, restricted to the
files of ``src/idcalc``.  It then runs one warm-up and one round of each
``perfbench/workloads.py`` workload at seed 4, twice: untraced, and with
perfbench's span tracer (``spans.Tracer``) installed and active, which
calls into the package in ways the suite does not (it tags each
``words.normalize`` span with ``len(word)``).  Each operation runs, and
each round answer is checked, through ``perfbench/run.py``'s ``timed``
and ``verdict``.

A line is executable when a code object compiled from its file maps
bytecode to it.  The script prints each executable line that never ran
and that ``ALLOW`` does not name, then one summary line.  It exits 1 when
such a line remains, when a test fails, when a workload gives a wrong
answer, or when an allow-listed line did run.

Tracing makes the suite several times slower: expect minutes, not
seconds.
"""

from __future__ import annotations

import os
import sys
import types
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "idcalc")
PERFBENCH = os.path.join(ROOT, "perfbench")
SEED = 4  # the workload seed the benchmark runs

# (file in src/idcalc, the line's text without indentation, why it cannot
# run in this process).  Only lines that no in-process run can reach
# belong here; a line that nothing needs is deleted instead.
ALLOW: list[tuple[str, str, str]] = [
    ("cli.py", "sys.exit(main())",
     "the body of the __main__ guard runs only when the module is the program "
     "(python -m idcalc.cli); the installed idcalc command calls main() itself"),
]


def executable_lines(path: str) -> set[int]:
    """Every line some code object compiled from the file maps bytecode to."""
    with open(path, encoding="utf-8") as fh:
        code = compile(fh.read(), path, "exec")
    lines, todo = set(), [code]
    while todo:
        co = todo.pop()
        # line None or 0: instructions the compiler adds, at no source line
        lines.update(line for _, _, line in co.co_lines() if line)
        todo.extend(c for c in co.co_consts if isinstance(c, types.CodeType))
    return lines


class LineTracer:
    """Records (file, line) for every line event in the package's files."""

    def __init__(self, files: set[str]) -> None:
        self.files = files
        self.hits: dict[str, set[int]] = defaultdict(set)
        self._local: dict[str, object] = {}  # co_filename -> local trace function or None

    def _global(self, frame, event, arg):
        name = frame.f_code.co_filename
        if name in self._local:
            return self._local[name]
        path = os.path.realpath(name)
        local = None
        if path in self.files:
            hits = self.hits[path]

            def local(frame, event, arg):
                if event == "line":
                    hits.add(frame.f_lineno)
                return local
        self._local[name] = local
        return local

    def start(self) -> None:
        sys.settrace(self._global)

    def stop(self) -> None:
        sys.settrace(None)


def run_suite() -> int:
    import pytest
    return int(pytest.main(["-q", "-p", "no:cacheprovider", os.path.join(ROOT, "tests")]))


def run_workloads() -> list[str]:
    """One warm-up and one round of each workload, untraced and then under
    the span tracer; the messages of wrong answers."""
    sys.path.insert(0, PERFBENCH)
    import run
    import spans
    import workloads

    wrong = []
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(SEED)
        for traced in (False, True):
            tracer = spans.Tracer()
            if traced:
                tracer.install()
                tracer.active = True
            try:
                for op in wl.warmup_ops():
                    run.timed(op)
                for op in wl.round_ops(0):
                    verdict = run.verdict(op, run.timed(op)[0])
                    if verdict and verdict[0] == "wrong":
                        wrong.append(f"{name} ({'traced' if traced else 'untraced'}) "
                                     f"{verdict[1]}")
            finally:
                tracer.active = False
                tracer.uninstall()
    return wrong


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, SRC)  # idcalc is first imported under the tracer

    files = {os.path.realpath(os.path.join(PACKAGE, f))
             for f in sorted(os.listdir(PACKAGE)) if f.endswith(".py")}
    tracer = LineTracer(files)
    tracer.start()
    try:
        suite = run_suite()
        wrong = run_workloads()
    finally:
        tracer.stop()

    allowed = defaultdict(set)
    for fname, text, _ in ALLOW:
        allowed[os.path.realpath(os.path.join(PACKAGE, fname))].add(text)
    total = missed = allowed_missed = 0
    allowed_ran = []
    for path in sorted(files):
        with open(path, encoding="utf-8") as fh:
            source = fh.read().splitlines()
        rel = os.path.relpath(path, ROOT)
        for line in sorted(executable_lines(path)):
            total += 1
            text = source[line - 1].strip()
            ran = line in tracer.hits[path]
            if text in allowed[path]:
                allowed_missed += not ran
                if ran:
                    allowed_ran.append(f"{rel}:{line}: {text}")
            elif not ran:
                missed += 1
                print(f"{rel}:{line}: {text}")
    for msg in allowed_ran:
        print(f"allow-listed line ran: {msg}")
    for msg in wrong:
        print(f"wrong answer: {msg}")
    print(f"line ledger: {total} executable lines, {missed} never ran, "
          f"{allowed_missed} more allow-listed; suite exit {suite}, "
          f"{len(wrong)} wrong workload answers")
    return int(bool(missed or allowed_ran or wrong or suite))


if __name__ == "__main__":
    sys.exit(main())
