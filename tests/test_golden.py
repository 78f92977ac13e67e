"""Golden outputs: exact transcripts and metrics at the acceptance points.

Each case runs one retrieval at a fixed seed and hashes the transcript dump
together with the canonical JSON of its metrics. Any change to group rows,
vectors, pads, answers, wire framing or accounting moves the hash, so a
refactor that claims identical behaviour must leave every value here as is.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import pytest

from hetdapac import (
    SystemParams,
    message_index,
    plan_mix,
    random_store,
    run_protocol,
    run_time_shared,
)

SEED = 3

CASES = {
    "het1": (SystemParams(n_attrs=3, d=2, k=2, q=65537, length=2), (1, 2, 2)),
    "het2": (SystemParams(n_attrs=4, d=3, k=2, q=65537, length=6), (1, 2, 2, 1)),
    "dapac": (SystemParams(n_attrs=3, d=3, k=2, q=65537, length=3), (2, 1, 2)),
    "mix": (SystemParams(n_attrs=3, d=2, k=2, q=65537, length=12), (2, 1, 2)),
    # beyond the acceptance points: het2 with rest pairs, dapac beside a
    # central server that it never queries
    "het2-rest": (SystemParams(n_attrs=5, d=4, k=2, q=65537, length=10), (1, 2, 1, 2, 2)),
    "dapac-public": (SystemParams(n_attrs=4, d=3, k=3, q=65537, length=3), (3, 1, 2, 2)),
    # sub-packets long enough for the packed answer kernel: 64 symbols
    # with 2-word lanes, and 32 symbols with 3-word lanes near q = 2^32
    "het2-packed": (SystemParams(n_attrs=4, d=3, k=2, q=65537, length=384), (1, 2, 2, 1)),
    "het1-packed-wide-q": (SystemParams(n_attrs=3, d=2, k=2, q=4294967291, length=64),
                           (1, 2, 2)),
}

GOLDEN = {
    "het1": "fc268f2974c1f804e11230962683385ba40d92533c14dcc5d0840f313db59ea6",
    "het2": "aa26f51200a8a0eb0d73065c516390ec0e122630a7d9a852bae9e42f43ba4e84",
    "dapac": "1d8b068ed5562e7d3bfb0777f13fa2d04dcaa5a5ea970dee1c4cb3ee1fd61108",
    "mix": "70b35631ecb7d37ffa7f7b30f906f3972fd995ad58997f9763352362ac9ec534",
    "het2-rest": "3348558e7886e8add7eecf8fcd199f21896d95c7386092dc97c8e221a642de12",
    "dapac-public": "f91170fa6027f0544bec5bdba93d999fa0a51c2775e285448da343549b4da1e8",
    "het2-packed": "ec346e09c17ba4e48ad1e5f321a723d5b36c4c0a1b77dc3e8cc70cfd6e9292a0",
    "het1-packed-wide-q": "32deda2785fed421c4d8ceca2a8441506eea201c7a7e80b82e86b2e3b32c63db",
}


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)


def run_case(kind: str):
    params, v_star = CASES[kind]
    store = random_store(params, SEED)
    if kind == "mix":
        result = run_time_shared(plan_mix(params, Fraction(1, 2)), v_star, store, SEED)
    else:
        result = run_protocol(kind.split("-")[0], params, v_star, store, SEED)
    msg, transcript, metrics = result
    assert msg == store[message_index(v_star, params)]
    return transcript, metrics


@pytest.mark.parametrize("kind", sorted(CASES))
def test_transcript_and_metrics_are_pinned(kind):
    transcript, metrics = run_case(kind)
    blob = transcript.dumps() + canonical(metrics)
    assert hashlib.sha256(blob.encode()).hexdigest() == GOLDEN[kind]
