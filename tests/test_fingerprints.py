"""The benchmark's pass-0 outputs at seed 1 have not moved.

Each workload's fingerprint is the sha256 of the exact outputs of its
first pass (decoded messages, metrics, audit verdicts), as
`perfbench/run.py` prints it. A change that moves one changes what the
protocol computes, not only how fast. `perfbench/run.py` and
`perfbench/workloads.py` are loaded by path, as the benchmark runs them;
the whole file takes about 6 s on two cores.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 1
FINGERPRINTS = {
    "sweep": "80f7880aaa67050f6d8882d447724583411574155412f17be8f66968c259f44a",
    "wide": "ad1c082b21fc411956b9852627288d34b68352054d2db1d020423c1799a7a5e0",
    "long": "0bead4440254c3d5e5886076bdfe84d6281ad2df64d6662d0249ff638f9f8168",
    "audit": "c7c370ce917759a2501578e0a205c11da3023d3e1ad25200d745fecfa5fbae17",
}


def load(name: str):
    """perfbench/<name>.py as a module of its own, registered under that
    name, as its dataclasses need; `run.py` puts its directory on
    sys.path to import its siblings, which is undone after."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    saved = sys.path[:]
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


@pytest.fixture(scope="module")
def bench():
    return load("run"), load("workloads")


@pytest.mark.parametrize("name", sorted(FINGERPRINTS))
def test_pass_zero_fingerprint_is_unchanged(bench, name):
    run, workloads = bench
    workload = workloads.WORKLOADS[name]
    book = run.Outcomes()
    book.run(workload, workload.setup(SEED), 0)
    assert (book.failed, book.attempted > 0) == (0, True)
    assert book.digest.hexdigest() == FINGERPRINTS[name]
