"""Guard: no hetdapac module defines a private name it never reads.

A module-level function, class or assignment whose name starts with one
underscore is the module's own; if nothing in the module reads it, it
is dead code, left behind by a change that stopped calling it.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import hetdapac

PACKAGE = Path(hetdapac.__file__).parent
MODULES = sorted(PACKAGE.rglob("*.py"))


def unused_private_names(source: str) -> list[str]:
    """Each private name a top-level def, class or assignment binds that
    no expression of the module reads, in definition order."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound += [n.id for target in targets for n in ast.walk(target)
                      if isinstance(n, ast.Name)]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in bound
            if name.startswith("_") and not name.startswith("__") and name not in read]


def test_the_guard_sees_unused_private_names():
    source = ("from __future__ import annotations\n"
              "__all__ = ['f']\n"
              "_TABLE = {}\n"
              "_a, _b = 1, 2\n"
              "_hint: int = 3\n"
              "class _Shape: ...\n"
              "def _helper(): return _a\n"
              "def _unused(): pass\n"
              "def f(x: _Shape) -> None:\n"
              "    _local = _TABLE\n"
              "    return _local\n")
    assert unused_private_names(source) == ["_b", "_hint", "_helper", "_unused"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_unused_private_names(path):
    assert unused_private_names(path.read_text()) == []
