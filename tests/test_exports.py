"""Import and export gate, on the standard library alone (``ast``).

Claims covered:
- no module of the package imports a name at module level that it never
  uses, the leftover a deletion produces; a name a module lists in its
  ``__all__`` counts as used;
- every name in ``abszeta.__all__`` resolves, and none is listed twice.
"""

from __future__ import annotations

import ast
import os

import pytest

import abszeta

SRC = os.path.dirname(abszeta.__file__)
MODULES = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """The names the module's top-level imports bind, with their line."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[(alias.asname or alias.name).partition(".")[0]] = node.lineno
    return bound


def _used(tree: ast.Module) -> set[str]:
    """The names the module reads, string annotations and ``__all__`` included."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations = [a.annotation for a in ast.walk(node.args) if isinstance(a, ast.arg)]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for annotation in annotations:
            for part in ast.walk(annotation) if annotation is not None else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    used |= _used(ast.parse(part.value, mode="eval"))
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_module_level_import(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as f:
        tree = ast.parse(f.read(), module)
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{module}: imported and never used: {unused}"


def test_gate_sees_an_unused_import():
    tree = ast.parse("import math\nfrom fractions import Fraction\n"
                     "def f(x: 'Fraction') -> int:\n    return 1\n")
    assert sorted(name for name in _imported(tree) if name not in _used(tree)) == ["math"]


def test_all_resolves_without_duplicates():
    names = abszeta.__all__
    assert len(names) == len(set(names)), [n for n in names if names.count(n) > 1]
    missing = [name for name in names if not hasattr(abszeta, name)]
    assert not missing
