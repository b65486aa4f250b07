"""Every defaulted parameter the package defines is set somewhere.

The scan parses ``src/idcalc/*.py`` and lists every parameter with a
default value, in functions, methods and nested functions alike.  A
parameter counts as set when some call in ``src/``, ``tests/``, ``demos/``
or ``perfbench/`` to a function of that name passes it: by keyword, by
position, or through ``*args`` or ``**kwargs``.  For a method the
positions skip ``self`` or ``cls``.  Calls are matched by name alone, so
a function that shares its name with another one escapes the scan.
"""

import ast
import os

from test_dead_names import _trees


def _defaulted(module: str, tree: ast.Module) -> list[tuple[str, str, str, int]]:
    """(qualified parameter, function name, parameter name, position) of
    every defaulted parameter; the position counts from the first
    argument a caller passes, and is -1 for a keyword-only parameter."""
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = fn.args
        positional = a.posonlyargs + a.args
        skip = 1 if positional and positional[0].arg in ("self", "cls") else 0
        first = len(positional) - len(a.defaults)
        out += [(f"{module}.{fn.name}.{p.arg}", fn.name, p.arg, k - skip)
                for k, p in enumerate(positional) if k >= first]
        out += [(f"{module}.{fn.name}.{p.arg}", fn.name, p.arg, -1)
                for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return out


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
