"""The benchmark tracer's targets still name real bindings of the package.

`perfbench/tracing.py` wraps each (module, attribute) pair in its TARGETS
at the name callers bind. A refactor that moves one of those bindings
breaks the benchmark's traced mode; installing and restoring the tracer
with no workload finds that in milliseconds. One traced run per scheme
pins the span counts the benchmark reports as exact, and those runs with
one mix must fire every target outside the audit.
"""

from __future__ import annotations

import importlib
import importlib.util
from collections import Counter
from fractions import Fraction
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


# (scheme, (N, D, K, L), v*) -> span counts of a run that traces its plan,
# as measured before label tables moved from each answer to the pool
# install: one query per server per run, so the set-helper calls must not
# move. Installing the tracer rebinds the set helpers, which empties the
# memo of traces and server views, so the counts do not depend on what ran
# before; each run is made once untraced first to show it.
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
    hetdapac.run_protocol(scheme, params, v_star, store, 5)
    with tracing.Tracer() as tracer:
        hetdapac.run_protocol(scheme, params, v_star, store, 5)
    spans = Counter(span[0] for span in tracer.spans)
    assert {name: spans[name] for name in want} == want


def test_warm_run_calls_no_set_helper():
    # a second run of one key under the same tracer evaluates the memoized
    # trace and installs every server's memoized view: none of het2's 33
    # set-helper calls, 15 for the trace and 18 for the four servers'
    # label tables, is made again
    tracing = load_tracing()
    scheme, (n_attrs, d, k, length), v_star, want = TRACED_RUNS[0]
    params = hetdapac.SystemParams(n_attrs=n_attrs, d=d, k=k, length=length)
    store = hetdapac.random_store(params, 3)
    with tracing.Tracer() as tracer:
        hetdapac.run_protocol(scheme, params, v_star, store, 5)
        cold = len(tracer.spans)
        hetdapac.run_protocol(scheme, params, v_star, store, 5)
    spans = Counter(span[0] for span in tracer.spans[cold:])
    assert {name: spans[name] for name in want} == {**want, "access.set": 0}


def test_het2_builds_one_plan_per_retrieval():
    # at q = 2 most plans draw a zero cycle coefficient first; it is
    # redrawn in place, so no plan is built and thrown away
    tracing = load_tracing()
    params = hetdapac.SystemParams(n_attrs=4, d=3, k=2, q=2, length=6)
    store = hetdapac.random_store(params, 5)
    retries = 0
    with tracing.Tracer() as tracer:
        for seed in range(8):
            _, _, metrics = hetdapac.run_protocol("het2", params, (1, 1, 1, 1), store, seed)
            retries += metrics["retries"]
    spans = Counter(span[0] for span in tracer.spans)
    assert spans["schemes.build"] == 8
    assert retries > 0


def test_every_retrieval_target_fires():
    # one traced run per scheme and one mix reach every binding the
    # benchmark wraps outside the audit: a change that stops calling one,
    # such as wire.canonical_json, or moves one, fails here
    tracing = load_tracing()
    with tracing.Tracer() as tracer:
        for scheme, shape, v_star, _ in TRACED_RUNS:
            n_attrs, d, k, length = shape
            params = hetdapac.SystemParams(n_attrs=n_attrs, d=d, k=k, length=length)
            hetdapac.run_protocol(scheme, params, v_star, hetdapac.random_store(params, 3), 5)
        params = hetdapac.SystemParams(n_attrs=3, d=2, k=2, length=12)
        plan = hetdapac.plan_mix(params, Fraction(1, 2))
        hetdapac.run_time_shared(plan, (2, 1, 2), hetdapac.random_store(params, 3), 5)
    audit_only = {key for key in map(tracing.target_key, tracing.TARGETS)
                  if key.startswith("hetdapac.audit.")}
    assert len(audit_only) == 3
    assert set(tracer.fired) == set(bindings(tracing)) - audit_only
