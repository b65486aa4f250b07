"""Every defaulted parameter the package defines is set somewhere, and no
parameter is one value that every call passes.

The scan parses ``src/idcalc/*.py`` and lists every parameter with a
default value, in functions, methods and nested functions alike.  A
parameter counts as set when some call in ``src/``, ``tests/``, ``demos/``
or ``perfbench/`` to a function of that name passes it: by keyword, by
position, or through ``*args`` or ``**kwargs``.  For a method the
positions skip ``self`` or ``cls``.  Calls are matched by name alone, so
a function that shares its name with another one escapes the scan.

The second scan lists every parameter of every function the package
defines and fails on one that every call of that name passes as the same
literal, by keyword or by position; a call with ``*args`` is skipped, and
a call that leaves the parameter out passes no literal.  Such a parameter
is a constant of the function.
"""

import ast
import os

from test_dead_names import _trees


def _parameters(module: str, tree: ast.Module) -> list[tuple[str, str, str, int, bool]]:
    """(qualified parameter, function name, parameter name, position,
    whether it has a default) of every parameter a caller passes; the
    position counts from the first argument a caller passes, and is -1
    for a keyword-only parameter."""
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = fn.args
        positional = a.posonlyargs + a.args
        skip = 1 if positional and positional[0].arg in ("self", "cls") else 0
        first = len(positional) - len(a.defaults)
        out += [(f"{module}.{fn.name}.{p.arg}", fn.name, p.arg, k - skip, k >= first)
                for k, p in enumerate(positional) if k >= skip]
        out += [(f"{module}.{fn.name}.{p.arg}", fn.name, p.arg, -1, d is not None)
                for p, d in zip(a.kwonlyargs, a.kw_defaults)]
    return out


def _defaulted(module: str, tree: ast.Module) -> list[tuple[str, str, str, int]]:
    """(qualified parameter, function name, parameter name, position) of
    every defaulted parameter."""
    return [p[:4] for p in _parameters(module, tree) if p[4]]


def _sets(call: ast.Call, param: str, position: int) -> bool:
    if any(kw.arg is None or kw.arg == param for kw in call.keywords):
        return True
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    return 0 <= position < len(call.args)


def _callee(call: ast.Call):
    f = call.func
    return f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None


def test_every_defaulted_parameter_is_set_somewhere():
    calls: dict[str, list[ast.Call]] = {}
    for _, tree in _trees("src", "tests", "demos", "perfbench"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(_callee(node), []).append(node)
    defaulted = []
    for path, tree in _trees(os.path.join("src", "idcalc")):
        defaulted += _defaulted(os.path.basename(path)[:-3], tree)
    assert len(defaulted) > 20  # the scan sees the package
    assert [qual for qual, fn, param, position in defaulted
            if not any(_sets(c, param, position) for c in calls.get(fn, []))] == []


def _literal_passed(call: ast.Call, param: str, position: int):
    """The dump of the literal the call passes for the parameter, or None
    when it passes no literal or leaves the parameter out."""
    node = next((kw.value for kw in call.keywords if kw.arg == param),
                call.args[position] if 0 <= position < len(call.args) else None)
    if node is None:
        return None
    try:
        ast.literal_eval(node)
    except ValueError:
        return None
    return ast.dump(node)


def test_no_parameter_is_one_literal_at_every_call():
    calls: dict[str, list[ast.Call]] = {}
    for _, tree in _trees("src", "tests", "demos", "perfbench"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and not any(isinstance(a, ast.Starred) for a in node.args):
                calls.setdefault(_callee(node), []).append(node)
    parameters = []
    for path, tree in _trees(os.path.join("src", "idcalc")):
        parameters += _parameters(os.path.basename(path)[:-3], tree)
    assert len(parameters) > 300  # the scan sees the package
    constant = []
    for qual, fn, param, position, _ in parameters:
        passed = {_literal_passed(c, param, position) for c in calls.get(fn, [])}
        if len(passed) == 1 and None not in passed:
            constant.append(qual)
    assert constant == []
