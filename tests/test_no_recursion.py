"""The term layer walks terms on explicit stacks, so a term built in code
may nest to any depth.

The scan parses ``src/idcalc/terms.py`` and ``evaluation.py`` and lists
every function, method and nested function that calls itself by name: a
bare call to its own name, or ``self.<name>(...)`` inside a method.  The
one exemption is the term parser, whose recursion ``MAX_TERM_DEPTH``
bounds.
"""

import ast
import os

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src", "idcalc")
EXEMPT = ["terms._read_term"]


def _calls_itself(fn: ast.FunctionDef, is_method: bool) -> bool:
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name) and f.id == fn.name:
            return True
        if (is_method and isinstance(f, ast.Attribute) and f.attr == fn.name
                and isinstance(f.value, ast.Name) and f.value.id == "self"):
            return True
    return False


def _self_callers(module: str) -> list[str]:
    with open(os.path.join(PACKAGE, f"{module}.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    found = []
    stack = [(tree, module, False)]
    while stack:
        node, qual, in_class = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{qual}.{child.name}"
                if _calls_itself(child, in_class):
                    found.append(name)
                stack.append((child, name, False))
            elif isinstance(child, ast.ClassDef):
                stack.append((child, f"{qual}.{child.name}", True))
            else:
                stack.append((child, qual, in_class))
    return sorted(found)


def test_term_layer_does_not_recurse():
    assert _self_callers("terms") + _self_callers("evaluation") == EXEMPT
