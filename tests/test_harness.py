"""Protocol harness: transcripts, determinism, actor behavior, refusals."""

from __future__ import annotations

import json

import pytest

from hetdapac.access import SystemParams
from hetdapac.errors import AccessRefusal, ConfigError
from hetdapac.harness import (
    ServerActor,
    Transcript,
    actor_name,
    random_store,
    run_protocol,
    store_segment,
)
from hetdapac.randomness import allocate

P322 = SystemParams(n_attrs=3, d=2, k=2, q=65537, length=2)
P432 = SystemParams(n_attrs=4, d=3, k=2, q=65537, length=6)


def test_actor_names():
    assert actor_name(1, P322) == "server1"
    assert actor_name(P322.central, P322) == "central"


def test_transcript_dump_is_deterministic(tmp_path):
    store = random_store(P432, 21)
    _, t1, m1 = run_protocol("het2", P432, (1, 2, 1, 2), store, seed=17)
    _, t2, m2 = run_protocol("het2", P432, (1, 2, 1, 2), store, seed=17)
    assert t1.dumps() == t2.dumps()
    assert m1 == m2
    path = tmp_path / "transcript.jsonl"
    t1.dump(path)
    lines = path.read_text().splitlines()
    assert len(lines) == len(t1.records)
    first = json.loads(lines[0])
    assert first["phase"] == "verification"
    assert first["seq"] == 0


def test_different_seeds_change_the_queries():
    store = random_store(P322, 21)
    _, t1, _ = run_protocol("het1", P322, (1, 2, 2), store, seed=1)
    _, t2, _ = run_protocol("het1", P322, (1, 2, 2), store, seed=2)
    q1 = [r.digest for r in t1.records if r.kind == "query"]
    q2 = [r.digest for r in t2.records if r.kind == "query"]
    assert q1 != q2


@pytest.mark.parametrize("scheme,params,v_star", [
    ("het1", P322, (2, 1, 2)),
    ("het2", P432, (2, 1, 2, 1)),
    ("dapac", SystemParams(n_attrs=3, d=3, k=2, q=65537, length=3), (2, 1, 2)),
])
def test_queries_do_not_depend_on_the_store(scheme, params, v_star):
    s1 = random_store(params, 100)
    s2 = random_store(params, 200)
    assert s1 != s2
    _, t1, _ = run_protocol(scheme, params, v_star, s1, seed=5)
    _, t2, _ = run_protocol(scheme, params, v_star, s2, seed=5)
    q1 = [r.digest for r in t1.records if r.kind == "query"]
    q2 = [r.digest for r in t2.records if r.kind == "query"]
    assert q1 == q2
    a1 = [r.digest for r in t1.records if r.kind == "answer"]
    a2 = [r.digest for r in t2.records if r.kind == "answer"]
    assert a1 != a2


def test_record_sequence_and_phases():
    store = random_store(P322, 1)
    _, transcript, _ = run_protocol("het1", P322, (1, 1, 1), store, seed=0)
    seqs = [r.seq for r in transcript.records]
    assert seqs == list(range(len(seqs)))
    phases = [r.phase for r in transcript.records]
    cut = phases.index("retrieval")
    assert set(phases[:cut]) == {"verification"}
    assert set(phases[cut:]) == {"retrieval"}
    # commits go out per dedicated server, then the public part is
    # committed to the central server and relayed back
    kinds = [(r.kind, r.receiver) for r in transcript.records[:cut]
             if r.sender != "central" and r.kind != "commit-ack"]
    assert ("attribute-commit", "server1") in kinds
    assert ("attribute-commit", "central") in kinds
    relays = [r for r in transcript.records if r.kind == "attribute-relay"]
    assert {r.receiver for r in relays} == {"server1", "server2"}
    assert all(r.sender == "central" for r in relays)


def test_dapac_runs_without_central_actor():
    params = SystemParams(n_attrs=3, d=3, k=2, q=65537, length=3)
    store = random_store(params, 2)
    _, transcript, _ = run_protocol("dapac", params, (1, 1, 2), store, seed=0)
    names = {r.sender for r in transcript.records} | {r.receiver for r in transcript.records}
    assert "central" not in names
    assert not any(r.kind == "attribute-relay" for r in transcript.records)


def make_verified_actor(server, scheme, params, store, v_star, seed=0, partition=None):
    actor = ServerActor(server, params)
    if actor.is_central:
        actor.handle("attribute-commit", {"public": list(v_star[params.d:])})
    else:
        actor.handle("attribute-commit", {"value": v_star[server - 1]})
        actor.handle("attribute-relay", {"public": list(v_star[params.d:])})
    pool = allocate(scheme, params, tuple(v_star[params.d:]), seed)
    actor.install_pool(pool, store, partition)
    return actor


def test_server_slice_is_the_accessible_set():
    store = random_store(P322, 3)
    actor = make_verified_actor(1, "het1", P322, store, (1, 2, 2))
    assert set(actor.ctx.store) == {1, 3}  # v_1 = 1, public y pinned
    central = make_verified_actor(P322.central, "het1", P322, store, (1, 2, 2))
    assert set(central.ctx.store) == {1, 3, 5, 7}


def test_query_for_inaccessible_message_is_refused():
    store = random_store(P322, 3)
    actor = make_verified_actor(1, "het1", P322, store, (1, 2, 2))
    payload = {
        "server": 1,
        "groups": [{"rows": [[5, 1], [7, 1]], "vector": [1, 1]}],
    }
    with pytest.raises(AccessRefusal):
        actor.handle("query", payload)


def test_query_with_foreign_group_shape_is_rejected():
    store = random_store(P322, 3)
    actor = make_verified_actor(1, "het1", P322, store, (1, 2, 2))
    # {1, 7} is no candidate match set, so no pad chunk fits it
    payload = {
        "server": 1,
        "groups": [{"rows": [[1, 1], [7, 1]], "vector": [1, 1]}],
    }
    with pytest.raises(ConfigError):
        actor.handle("query", payload)


def test_pool_before_verification_is_rejected():
    store = random_store(P322, 3)
    actor = ServerActor(1, P322)
    with pytest.raises(ConfigError):
        actor.install_pool(allocate("het1", P322, (2,), 0), store)


def test_store_segment_slices_symbols():
    store = {0: (1, 2, 3, 4), 1: (5, 6, 7, 8)}
    assert store_segment(store, 0, 2) == {0: (1, 2), 1: (5, 6)}
    assert store_segment(store, 2, 4) == {0: (3, 4), 1: (7, 8)}


def test_upload_symbols_counted_per_query():
    store = random_store(P322, 7)
    _, transcript, _ = run_protocol("het1", P322, (1, 1, 2), store, seed=0)
    uploads = {r.receiver: r.symbols for r in transcript.records if r.kind == "query"}
    # vectors: one group of 2 per dedicated server, four groups of 2 centrally
    assert uploads == {"server1": 2, "server2": 2, "central": 8}


def test_consumed_accounting_survives_retries():
    params = SystemParams(n_attrs=4, d=3, k=2, q=2, length=6)
    store = random_store(params, 5)
    for seed in range(4):
        _, transcript, metrics = run_protocol("het2", params, (1, 1, 1, 1),
                                              store, seed=seed, retry_cap=120)
        # redraws touch the same chunk labels, so consumption stays put
        assert metrics["randomness_consumed_chunks"] == 12
