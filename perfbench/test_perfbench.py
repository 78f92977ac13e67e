"""The benchmark's own checks, on every workload at one seed:

* two traced passes report the same exact counts and fingerprint, and both
  match an untraced pass;
* every wrapper fires on each workload that exercises its layer, and no
  other does;
* no wrapper is installed during the untraced pass, and all are restored
  after each traced one.

Run from the repository root (about four minutes on two cores):

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import importlib

import pytest

import run
import tracing

SEED = 1

AUDIT_ONLY = {"hetdapac.audit.random_store", "hetdapac.audit.allocate",
              "hetdapac.audit.run_protocol"}
RETRIEVAL_ONLY = {"hetdapac.random_store", "hetdapac.run_protocol",
                  "hetdapac.run_time_shared", "hetdapac.mixer.allocate",
                  "hetdapac.mixer.store_segment"}
EVERY = {tracing.target_key(t) for t in tracing.TARGETS}
FIRES = {
    "sweep": EVERY - AUDIT_ONLY,
    "wide": EVERY - AUDIT_ONLY,
    "long": EVERY - AUDIT_ONLY,
    "audit": EVERY - RETRIEVAL_ONLY,
}
EXACT = [name for name, unit in tracing.PER_LAYER if unit == "count"]


def bindings() -> dict:
    return {tracing.target_key(t): getattr(importlib.import_module(t[0]), t[1])
            for t in tracing.TARGETS}


def exact_counts(book, tracer) -> dict:
    layers = tracer.layer_metrics()
    counts = {name: layers[name] for name in EXACT if name in layers}
    counts.update(book.counts)
    counts["fingerprint"] = book.digest.hexdigest()
    return counts


@pytest.mark.parametrize("name", sorted(FIRES))
def test_traced_counts_repeat_and_wrappers_fire(name, monkeypatch):
    originals = bindings()
    for binding in originals.values():
        assert not hasattr(binding, tracing.SPAN_MARK)

    def refuse(self):
        raise AssertionError("a tracer was installed during the untraced pass")

    with monkeypatch.context() as patch:
        patch.setattr(tracing.Tracer, "install", refuse)
        plain, _ = run.plain_pass(name, SEED)
    assert bindings() == originals
    assert plain.failed == 0

    seen = []
    for _ in range(2):
        book, tracer, _ = run.traced_pass(name, SEED)
        assert bindings() == originals, "wrappers left installed"
        assert book.failed == 0
        assert set(tracer.fired) == FIRES[name]
        seen.append(exact_counts(book, tracer))
    assert seen[0] == seen[1]
    assert seen[0]["fingerprint"] == plain.digest.hexdigest()
    assert dict(plain.counts) == {k: v for k, v in seen[0].items() if k in plain.counts}
