"""The benchmark tracer's targets still name real bindings of the package.

`perfbench/tracing.py` wraps each (module, attribute) pair in its TARGETS
at the name callers bind. A refactor that moves one of those bindings
breaks the benchmark's traced mode; installing and restoring the tracer
with no workload finds that in milliseconds.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings(tracing) -> dict:
    return {tracing.target_key(t): getattr(importlib.import_module(t[0]), t[1])
            for t in tracing.TARGETS}


def test_tracer_installs_on_every_target_and_restores():
    tracing = load_tracing()
    originals = bindings(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = bindings(tracing)
        assert all(hasattr(fn, tracing.SPAN_MARK) for fn in wrapped.values())
    finally:
        tracer.restore()
    assert bindings(tracing) == originals
