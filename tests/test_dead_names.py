"""Every name the package defines is used somewhere.

The scan parses ``src/idcalc/*.py`` and lists its top-level functions and
classes, its methods and its module-level assignments, dunders exempt.
A name counts as used when it is loaded anywhere in ``src/``, ``tests/``,
``demos/`` or ``perfbench/``: as a name in load context, as an attribute,
as an imported name, or as a part of a dotted string constant such as a
tracer target (``"Poly.subst"``).  A method whose name some other object
also uses (``degree`` is sympy's too) escapes the scan.
"""

import ast
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "idcalc")
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+")


def _trees(*dirs: str):
    for d in dirs:
        for base, _, files in os.walk(os.path.join(ROOT, d)):
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(base, name)
                    with open(path, encoding="utf-8") as fh:
                        yield path, ast.parse(fh.read(), path)


def _defined(module: str, tree: ast.Module) -> list[tuple[str, str]]:
    """(qualified name, name) of every definition the scan checks."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((f"{module}.{node.name}", node.name))
        if isinstance(node, ast.ClassDef):
            out += [(f"{module}.{node.name}.{item.name}", item.name) for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
        targets = node.targets if isinstance(node, ast.Assign) else \
            [node.target] if isinstance(node, ast.AnnAssign) else []
        out += [(f"{module}.{t.id}", t.id) for t in targets if isinstance(t, ast.Name)]
    return [(qual, name) for qual, name in out
            if not (name.startswith("__") and name.endswith("__"))]


def _loaded(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and DOTTED.fullmatch(node.value)):
            names.update(node.value.split("."))
    return names


def test_every_defined_name_is_loaded_somewhere():
    loaded = set()
    for _, tree in _trees("src", "tests", "demos", "perfbench"):
        loaded |= _loaded(tree)
    defined = []
    for path, tree in _trees(os.path.join("src", "idcalc")):
        defined += _defined(os.path.basename(path)[:-3], tree)
    assert len(defined) > 300  # the scan sees the package
    assert [qual for qual, name in defined if name not in loaded] == []
