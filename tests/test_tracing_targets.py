"""The benchmark tracer's targets still name real bindings of the package.

`perfbench/tracing.py` wraps each (module, attribute) pair in its TARGETS
at the name callers bind. A refactor that moves one of those bindings
breaks the benchmark's traced mode; installing and restoring the tracer
with no workload finds that in milliseconds. One traced run per scheme
pins the span counts the benchmark reports as exact.
"""

from __future__ import annotations

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

import hetdapac

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


# (scheme, (N, D, K, L), v*) -> span counts, as measured before label
# tables moved from each answer to the pool install: one query per server
# per run, so the set-helper calls must not move
TRACED_RUNS = [
    ("het2", (4, 3, 2, 6), (1, 2, 2, 1),
     {"access.set": 33, "schemes.answer.dedicated": 3, "schemes.answer.central": 1}),
    ("het1", (3, 2, 2, 2), (1, 2, 2),
     {"access.set": 16, "schemes.answer.dedicated": 2, "schemes.answer.central": 1}),
    ("dapac", (3, 3, 2, 3), (2, 1, 2),
     {"access.set": 21, "schemes.answer.dedicated": 3, "schemes.answer.central": 0}),
]


@pytest.mark.parametrize("scheme, shape, v_star, want", TRACED_RUNS)
def test_traced_run_counts_spans(scheme, shape, v_star, want):
    tracing = load_tracing()
    n_attrs, d, k, length = shape
    params = hetdapac.SystemParams(n_attrs=n_attrs, d=d, k=k, length=length)
    store = hetdapac.random_store(params, 3)
    with tracing.Tracer() as tracer:
        hetdapac.run_protocol(scheme, params, v_star, store, 5)
    spans = Counter(span[0] for span in tracer.spans)
    assert {name: spans[name] for name in want} == want
