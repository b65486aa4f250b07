"""Line ledger: which lines of src/idcalc never run, and which functions
only the test suite runs.

    python3 tools/line_ledger.py

Run from the root of a checkout.  The script traces the files of
``src/idcalc`` under ``sys.settrace`` in two phases, in this process.

- The product phase runs what users run.  It runs one warm-up and one
  round of each ``perfbench/workloads.py`` workload at seed 4, twice:
  untraced, and with perfbench's span tracer (``spans.Tracer``) installed
  and active, which calls into the package in ways the suite does not (it
  tags each ``words.normalize`` span with ``len(word)``).  Each operation
  runs, and each round answer is checked, through ``perfbench/run.py``'s
  ``timed`` and ``verdict``.  It then runs the examples of the README's
  "Command line" block, as ``tests/test_readme.py`` reads and runs them,
  each in a temporary directory, and the scripts in ``demos/``, with
  their output captured.
- The suite phase runs the tier-1 suite (``tests/``).

A line is executable when a code object compiled from its file maps
bytecode to it.  The first report lists each executable line that ran in
neither phase and that ``ALLOW`` does not name.  The second lists each
function or method, nested ones included, that has executable lines of
its own but ran none of them in the product phase, unless ``PROMISED``
names it.  Then one summary line follows.  The script exits 1 when either
report is non-empty, when an allow-listed line or a promised function ran
in the product phase, when a test fails, or when a workload gives a wrong
answer.

Tracing makes the suite several times slower: expect minutes, not
seconds.
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import os
import runpy
import sys
import tempfile
import types
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "idcalc")
PERFBENCH = os.path.join(ROOT, "perfbench")
DEMOS = os.path.join(ROOT, "demos")
SEED = 4  # the workload seed the benchmark runs

# (file in src/idcalc, the line's text without indentation, why it cannot
# run in this process).  Only lines that no in-process run can reach
# belong here; a line that nothing needs is deleted instead.
ALLOW: list[tuple[str, str, str]] = [
    ("cli.py", "sys.exit(main())",
     "the body of the __main__ guard runs only when the module is the program "
     "(python -m idcalc.cli); the installed idcalc command calls main() itself"),
]

# (module.qualified name, a phrase of README.md that promises the function,
# why no product run enters it).  A function that only the suite runs and
# that the README does not promise is deleted or moved under tests/.
_STEP_API = ("the single-step API stays for ROADMAP item 3's derivation search and "
             "item 10's certificate replay; no product path rewrites one step")
_TRACED = "a target of perfbench's span tracer, which a rename or deletion breaks"
_REFUSAL = "it runs only when a command refuses its input, and the README's runs all succeed"
PROMISED: list[tuple[str, str, str]] = [
    ("words.relation_step", "single-step rewriting API", f"{_TRACED}; {_STEP_API}"),
    ("words._emit", "single-step rewriting API",
     "it builds the rewritten letters of relation_step, its one caller in the package, "
     "and the sides of the suite's relation oracle (tests/oracles.py, relation_sides)"),
    ("terms.substitute", "simultaneous substitution",
     f"{_TRACED}; instantiate replaces opaque leaves in one fold, by object, "
     "not by address, and no command substitutes at an address"),
    ("boxes._echo", "refused with its length and a cut-short echo", _REFUSAL),
    ("boxes.Cursor.fail", "Every refusal of a text names where it fails", _REFUSAL),
    ("cli._ArgumentParser.error", "a usage error such as a missing argument", _REFUSAL),
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


def functions(path: str) -> dict[str, set[int]]:
    """The executable lines of every function and method in the file, by
    qualified name (module.Class.method, module.outer.inner).  A
    function's lines run from its first statement to its end, without the
    bodies of the functions defined inside it."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    executable = executable_lines(path)
    module = os.path.basename(path)[:-3]
    out: dict[str, set[int]] = {}

    def body_lines(fn) -> set[int]:
        return set(range(fn.body[0].lineno, fn.end_lineno + 1))

    def visit(node, prefix: str, outer) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                out[name] = body_lines(child) & executable
                if outer is not None:
                    out[outer] -= out[name]
                visit(child, name, name)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}", outer)
            else:
                visit(child, prefix, outer)

    visit(tree, module, None)
    return out


class LineTracer:
    """Records, per phase, (file, line) for every line event in the
    package's files."""

    def __init__(self, files: set[str]) -> None:
        self.files = files
        self.phases: dict[str, dict[str, set[int]]] = {}
        self._local: dict[str, object] = {}  # co_filename -> local trace function or None

    def begin(self, phase: str) -> None:
        """Record the lines that run from now on under phase."""
        self.hits = self.phases[phase] = defaultdict(set)
        self._local = {}

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


def run_readme_and_demos() -> None:
    """Each README command-line example in a temporary directory, then
    each demo, all with their output captured."""
    spec = importlib.util.spec_from_file_location(
        "test_readme", os.path.join(ROOT, "tests", "test_readme.py"))
    readme = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(readme)
    quiet = io.StringIO()
    with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
        for command, comment in readme.EXAMPLES:
            with tempfile.TemporaryDirectory() as tmp:
                os.chdir(tmp)
                try:
                    readme.run_example(command, comment)
                finally:
                    os.chdir(ROOT)
        for name in sorted(os.listdir(DEMOS)):
            if name.endswith(".py"):
                runpy.run_path(os.path.join(DEMOS, name), run_name="__main__")


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, SRC)  # idcalc is first imported under the tracer

    files = {os.path.realpath(os.path.join(PACKAGE, f))
             for f in sorted(os.listdir(PACKAGE)) if f.endswith(".py")}
    tracer = LineTracer(files)
    tracer.begin("product")
    tracer.start()
    try:
        wrong = run_workloads()
        run_readme_and_demos()
        tracer.begin("suite")
        suite = run_suite()
    finally:
        tracer.stop()
    product = tracer.phases["product"]

    allowed = defaultdict(set)
    for fname, text, _ in ALLOW:
        allowed[os.path.realpath(os.path.join(PACKAGE, fname))].add(text)
    promised = {name for name, _, _ in PROMISED}
    total = missed = allowed_missed = 0
    allowed_ran, promised_ran, suite_only = [], [], []
    n_functions = n_promised = 0
    for path in sorted(files):
        with open(path, encoding="utf-8") as fh:
            source = fh.read().splitlines()
        rel = os.path.relpath(path, ROOT)
        ran_here = set().union(*(hits[path] for hits in tracer.phases.values()))
        for line in sorted(executable_lines(path)):
            total += 1
            text = source[line - 1].strip()
            ran = line in ran_here
            if text in allowed[path]:
                allowed_missed += not ran
                if ran:
                    allowed_ran.append(f"{rel}:{line}: {text}")
            elif not ran:
                missed += 1
                print(f"{rel}:{line}: {text}")
        for name, lines in functions(path).items():
            if not lines:
                continue
            n_functions += 1
            in_product = bool(lines & product[path])
            if name in promised:
                n_promised += 1
                if in_product:
                    promised_ran.append(name)
            elif not in_product:
                suite_only.append(f"{rel}:{min(lines)}: {name} ({len(lines)} lines)")
    for msg in suite_only:
        print(f"no product run enters: {msg}")
    for msg in allowed_ran:
        print(f"allow-listed line ran: {msg}")
    for name in promised_ran:
        print(f"promised function ran in the product phase: {name}")
    for msg in wrong:
        print(f"wrong answer: {msg}")
    print(f"line ledger: {total} executable lines, {missed} never ran, "
          f"{allowed_missed} more allow-listed; {n_functions} functions, "
          f"{len(suite_only)} that no product run enters, {n_promised} more promised; "
          f"suite exit {suite}, {len(wrong)} wrong workload answers")
    return int(bool(missed or suite_only or allowed_ran or promised_ran or wrong or suite))


if __name__ == "__main__":
    sys.exit(main())
