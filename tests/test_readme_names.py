"""Guard: every dotted name README.md gives in backticks for the package
resolves.

A backticked name whose head is `hetdapac` or one of its modules
(`schemes.base.check_query`, `hetdapac.audit`) must name a real module
or attribute, so a rename or a deletion cannot leave the README behind.
File names (`audit.py`) and names of other heads (`operator.itemgetter`)
are not checked.
"""

from __future__ import annotations

import importlib
import pkgutil
import re
from pathlib import Path

import hetdapac

README = Path(__file__).resolve().parents[1] / "README.md"
HEADS = {"hetdapac"} | {m.name for m in pkgutil.iter_modules(hetdapac.__path__)}
DOTTED = re.compile(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\(\))?")


def package_names(text: str) -> list[str]:
    """Each backticked dotted name, a call's `()` dropped, whose head is
    the package or one of its modules, in order; fenced blocks skipped."""
    text = re.sub(r"^```.*?^```", "", text, flags=re.S | re.M)
    names = [m.group(1) for span in re.findall(r"`([^`\n]+)`", text)
             if (m := DOTTED.fullmatch(span)) and not span.endswith(".py")]
    return [name for name in names if name.split(".")[0] in HEADS]


def resolves(name: str) -> bool:
    """Whether `name`, read from the package, is a module or attribute."""
    head, *parts = name.split(".")
    obj = importlib.import_module("hetdapac" if head == "hetdapac" else f"hetdapac.{head}")
    for part in parts:
        if not hasattr(obj, part):
            try:
                importlib.import_module(f"{obj.__name__}.{part}")
            except (AttributeError, ImportError):
                return False
        obj = getattr(obj, part)
    return True


def test_the_guard_reads_only_package_names():
    text = ("`schemes.base.check_query` and `hetdapac.audit`, `schemes.memo_bindings()`,\n"
            "`audit.py`, `operator.itemgetter`, `q.bit_length` and `audit.gone`\n"
            "```\n`field.in_a_fence`\n```\n")
    names = package_names(text)
    assert names == ["schemes.base.check_query", "hetdapac.audit", "schemes.memo_bindings",
                     "audit.gone"]
    assert [resolves(name) for name in names] == [True, True, True, False]


def test_every_package_name_in_the_readme_resolves():
    names = package_names(README.read_text())
    assert len(names) >= 20
    assert [name for name in names if not resolves(name)] == []
