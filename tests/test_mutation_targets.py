"""The mutation run's commands and its list of equivalent mutants still
name real code.

README's "Mutation run" gives one `python3 tools/mutants.py MODULE
FUNCTION... --tests ...` command per target set. A rename of a function
or method breaks its command, and an edit of a listed line leaves a
stale entry in `tools/equivalent_mutants.txt`; either shows up only when
someone runs the slow mutation run. This test loads the tool by path,
makes every command's mutants without running any, and checks both in
well under a second.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = ROOT / "tools" / "mutants.py"


def load_mutants():
    spec = importlib.util.spec_from_file_location("tools_mutants", MUTANTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def readme_commands() -> list[tuple[str, list[str]]]:
    """(module, functions) of every mutation command in README, its
    continued lines joined."""
    text = (ROOT / "README.md").read_text().replace("\\\n", " ")
    commands = []
    for line in text.splitlines():
        words = line.split()
        if words[:2] == ["python3", "tools/mutants.py"]:
            module, *functions = words[2:words.index("--tests")]
            commands.append((module, functions))
    return commands


def test_every_readme_command_names_targets_the_tool_finds():
    tool, commands = load_mutants(), readme_commands()
    assert len(commands) >= 8
    for module, functions in commands:
        try:
            made = tool.mutants(module, functions)
        except SystemExit as missing:
            raise AssertionError(str(missing)) from None
        assert made, (module, functions)


def test_every_listed_equivalent_is_made_by_a_readme_command():
    tool = load_mutants()
    made = {key for module, functions in readme_commands()
            for key, _ in tool.mutants(module, functions)}
    listed = tool.equivalents()
    assert listed
    assert [key for key in listed if key not in made] == []
