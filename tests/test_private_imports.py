"""Guard: no hetdapac module imports another module's private names.

A leading underscore marks a name as private to the module that defines
it. A module that imports such a name from a sibling depends on that
sibling's internals, which is how a second copy of a mechanism starts;
it should call the sibling's public entry point instead.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import hetdapac

PACKAGE = Path(hetdapac.__file__).parent
MODULES = sorted(PACKAGE.rglob("*.py"))


def private_imports(source: str) -> list[str]:
    """Each underscore-prefixed name imported from a hetdapac module,
    relatively or by absolute path, as "name from module"; dunders are
    public."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level or module.split(".")[0] == "hetdapac":
                found += [f"{alias.name} from {'.' * node.level}{module}"
                          for alias in node.names
                          if alias.name.startswith("_") and not alias.name.startswith("__")]
        elif isinstance(node, ast.Import):
            found += [alias.name for alias in node.names
                      if alias.name.split(".")[0] == "hetdapac"
                      and any(p.startswith("_") and not p.startswith("__")
                              for p in alias.name.split("."))]
    return found


def test_the_guard_sees_private_imports():
    source = ("from __future__ import annotations\n"
              "from .audit import POINTS, _suite\n"
              "from hetdapac.mixer import _Costs\n"
              "from . import _private\n"
              "import hetdapac._internal\n"
              "from .schemes import __doc__\n")
    assert private_imports(source) == ["_suite from .audit", "_Costs from hetdapac.mixer",
                                       "_private from .", "hetdapac._internal"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_private_imports(path):
    assert private_imports(path.read_text()) == []
