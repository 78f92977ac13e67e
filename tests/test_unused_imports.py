"""Guard: no hetdapac module and no test file imports a name it never
references.

An import that nothing in the module reads is dead code, and it lets a
caller reach the name through the wrong module and come to depend on it
there. The engine modules are the one exception: each re-exports
`answer_query` and `decode` from schemes/base.py, because those two are
part of the interface every engine exposes (see tests/test_engines.py).
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import hetdapac

PACKAGE = Path(hetdapac.__file__).parent
TESTS = Path(__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")
TEST_FILES = sorted(TESTS.glob("*.py"))
ENGINES = {"schemes/dapac.py", "schemes/het1.py", "schemes/het2.py"}
RE_EXPORTS = {"answer_query", "decode"}


def unused_imports(source: str) -> list[str]:
    """Each name an import binds that no expression of the module reads,
    in import order; `from __future__` imports bind nothing."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_the_guard_sees_unused_imports():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import json as js\n"
              "from .mixer import INF, plan_mix as plan\n"
              "from . import wire\n"
              "def f(x: INF) -> None:\n"
              "    return wire.encode(plan)\n")
    assert unused_imports(source) == ["os", "js"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_unused_imports(path):
    allowed = RE_EXPORTS if str(path.relative_to(PACKAGE)) in ENGINES else set()
    assert [name for name in unused_imports(path.read_text()) if name not in allowed] == []


@pytest.mark.parametrize("path", TEST_FILES, ids=lambda p: p.name)
def test_no_unused_imports_in_tests(path):
    assert unused_imports(path.read_text()) == []
