"""Mutation run: would the tests notice a one-token fault in these functions?

    python tools/mutants.py MODULE FUNCTION... --tests TEST_FILE...

MODULE is a source file's path from the repository root, FUNCTION a
top-level function of it (its nested functions come with it), TEST_FILE
a test file. Each mutant is one edit of one function's syntax tree
(`ast`), spliced into the source as one token:

    a comparison flipped      <  <=,  >  >=,  ==  !=,  is  is not,  in  not in
    arithmetic                +  -,  *  ->  +,  %  ->  //  (also as +=, -=, *=, %=)
    a boolean operator        and  or
    a constant 0, 1 or 2      0 -> 1,  1 -> 0,  2 -> 1
    a doubled not             not x  ->  not not x

Each mutant runs `pytest -x` on the test files in a temporary copy of
the checkout, never in place, at most two at a time; failing tests or a
timeout (four times the unmutated run, at least 30 s) kill it. A mutant
is named by its module, function and the source line it edits, before
and after, so a name survives edits elsewhere in the file. A survivor must be listed in
tools/equivalent_mutants.txt under that name, with an indented line
arguing that no input tells it from the original. The run fails (exit 1)
on any other survivor, and on a listed mutant of the run's functions
that is killed or no longer made.

The tools/ directory is not a test path: pytest does not collect this
script, and it imports nothing of the package.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EQUIVALENTS = ROOT / "tools" / "equivalent_mutants.txt"
COMPARE = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="),
           ast.GtE: (">=", ">"), ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="),
           ast.Is: ("is", "is not"), ast.IsNot: ("is not", "is"),
           ast.In: ("in", "not in"), ast.NotIn: ("not in", "in")}
ARITHMETIC = {ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "+"),
              ast.Mod: ("%", "//")}
BOOLEAN = {ast.And: ("and", "or"), ast.Or: ("or", "and")}
CONSTANT = {0: 1, 1: 0, 2: 1}
JOBS = 2  # mutants run at once


class Source:
    """A module's source as UTF-8 bytes, addressed as `ast` addresses it:
    (line from 1, byte column)."""

    def __init__(self, text: str):
        self.data = text.encode()
        self.starts = [0]
        for line in self.data.splitlines(keepends=True):
            self.starts.append(self.starts[-1] + len(line))

    def at(self, line: int, col: int) -> int:
        return self.starts[line - 1] + col

    def start(self, node) -> int:
        return self.at(node.lineno, node.col_offset)

    def end(self, node) -> int:
        return self.at(node.end_lineno, node.end_col_offset)


def _token_edit(src: Source, lo: int, hi: int, old: str, new: str):
    """The edit of the operator `old` to `new` in the bytes [lo, hi)
    between two operands, or None where anything but brackets, blanks and
    line joins surrounds it (a comment)."""
    gap = src.data[lo:hi].decode()
    match = re.search(rf"(?<![\w<>=!]){re.escape(old)}(?![\w<>=])", gap)
    if not match or gap[:match.start()].strip("() \t\n\\") or gap[match.end():].strip("() \t\n\\"):
        return None
    return lo + len(gap[:match.start()].encode()), lo + len(gap[:match.end()].encode()), new


def _edits(src: Source, node):
    """Each mutant of `node` alone: a list of (start, stop, replacement)
    byte splices."""
    if isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            old, new = COMPARE[type(op)]
            left = node.left if i == 0 else node.comparators[i - 1]
            yield [_token_edit(src, src.end(left), src.start(node.comparators[i]), old, new)]
    elif isinstance(node, ast.BinOp) and type(node.op) in ARITHMETIC:
        old, new = ARITHMETIC[type(node.op)]
        edit = [_token_edit(src, src.end(node.left), src.start(node.right), old, new)]
        if type(node.op) is ast.Mult:  # + binds looser than *: keep the product's operands
            edit += [(src.start(node), src.start(node), "("), (src.end(node), src.end(node), ")")]
        yield edit
    elif isinstance(node, ast.AugAssign) and type(node.op) in ARITHMETIC:
        old, new = ARITHMETIC[type(node.op)]
        yield [_token_edit(src, src.end(node.target), src.start(node.value), old + "=", new + "=")]
    elif isinstance(node, ast.BoolOp):
        old, new = BOOLEAN[type(node.op)]
        yield [_token_edit(src, src.end(a), src.start(b), old, new)
               for a, b in zip(node.values, node.values[1:])]
    elif isinstance(node, ast.UnaryOp) and type(node.op) is ast.Not:
        yield [(src.start(node), src.start(node), "not ")]
    elif (isinstance(node, ast.Constant) and type(node.value) is int
          and node.value in CONSTANT):
        yield [(src.start(node), src.end(node), str(CONSTANT[node.value]))]


def _nodes(function):
    """The nodes of `function` to mutate: none inside an f-string."""
    stack = [function]
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, ast.JoinedStr):
            stack.extend(reversed(list(ast.iter_child_nodes(node))))


def mutants(module: str, functions: list[str]) -> list[tuple[str, bytes]]:
    """Every (name, mutated source) of the named top-level functions."""
    text = (ROOT / module).read_text()
    src, tree = Source(text), ast.parse(text)
    found = {node.name: node for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    missing = [name for name in functions if name not in found]
    if missing:
        raise SystemExit(f"{module} defines no top-level function {', '.join(missing)}")
    out, seen = [], {}
    for name in functions:
        for node in _nodes(found[name]):
            for edit in _edits(src, node):
                if None in edit:
                    continue
                data = src.data
                for lo, hi, new in sorted(edit, reverse=True):
                    data = data[:lo] + new.encode() + data[hi:]
                first = min(lo for lo, _, _ in edit)
                last = max(hi for _, hi, _ in edit)
                line_lo = src.data.rfind(b"\n", 0, first) + 1
                line_hi = src.data.find(b"\n", last)
                shift = len(data) - len(src.data)
                before = src.data[line_lo:line_hi].decode()
                after = data[line_lo:line_hi + shift].decode()
                key = f"{module}::{name}: {' '.join(before.split())} => {' '.join(after.split())}"
                seen[key] = seen.get(key, 0) + 1
                out.append((key if seen[key] == 1 else f"{key} #{seen[key]}", data))
    return out


def equivalents(path: Path = EQUIVALENTS) -> dict[str, str]:
    """The listed equivalent mutants: name -> argument."""
    listed, key = {}, None
    for number, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        if line[0].isspace():
            if key is None:
                raise SystemExit(f"{path}:{number}: an argument with no mutant")
            listed[key] = f"{listed[key]} {line.strip()}".strip()
        else:
            key = line.strip()
            listed[key] = ""
    unargued = [key for key, why in listed.items() if not why]
    if unargued:
        raise SystemExit(f"{path}: no argument for {unargued}")
    return listed


def _copy(into: Path) -> Path:
    checkout = into / "checkout"
    shutil.copytree(ROOT, checkout, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", "*.egg-info", ".bench_*"))
    return checkout


def run_tests(module: str, data: bytes | None, tests: list[str],
              timeout: float | None = None) -> str:
    """'passed', 'failed' or 'timeout': `pytest -x` on `tests` in a fresh
    copy of the checkout with `module` holding `data` (as it is when None)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        checkout = _copy(Path(tmp))
        if data is not None:
            (checkout / module).write_bytes(data)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
                cwd=checkout, capture_output=True, timeout=timeout,
                env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
        except subprocess.TimeoutExpired:
            return "timeout"
        return "passed" if done.returncode == 0 else "failed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module")
    parser.add_argument("functions", nargs="+")
    parser.add_argument("--tests", nargs="+", required=True)
    args = parser.parse_args(argv)
    made = mutants(args.module, args.functions)
    listed = equivalents()
    began = time.perf_counter()
    if run_tests(args.module, None, args.tests) != "passed":
        raise SystemExit("the tests fail on the unmutated checkout")
    timeout = max(30.0, 4 * (time.perf_counter() - began))
    with ThreadPoolExecutor(JOBS) as pool:
        outcomes = dict(zip((key for key, _ in made), pool.map(
            lambda mutant: run_tests(args.module, mutant[1], args.tests, timeout), made)))
    seconds = time.perf_counter() - began
    survived = [key for key, outcome in outcomes.items() if outcome == "passed"]
    unlisted = [key for key in survived if key not in listed]
    ours = tuple(f"{args.module}::{name}:" for name in args.functions)
    stale = [key for key in listed if key.startswith(ours) and outcomes.get(key) != "passed"]
    for key in unlisted:
        print(f"SURVIVED  {key}")
    for key in stale:
        print(f"STALE     {key}: {outcomes.get(key, 'no longer made')}")
    killed = sum(outcome != "passed" for outcome in outcomes.values())
    timeouts = sum(outcome == "timeout" for outcome in outcomes.values())
    print(f"{args.module} {' '.join(args.functions)}: {len(made)} mutants, {killed} killed "
          f"({timeouts} by timeout), {len(survived) - len(unlisted)} equivalent, "
          f"{len(unlisted)} survived, {seconds:.0f} s")
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())
