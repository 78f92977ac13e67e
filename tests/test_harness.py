"""Protocol harness: transcripts, determinism, actor behavior, refusals."""

from __future__ import annotations

import json
from array import array

import pytest

from hetdapac.access import SystemParams, message_index
from hetdapac.errors import AccessRefusal, ConfigError
from hetdapac.field import derive_rng
from hetdapac.harness import (
    Channel,
    ServerActor,
    Transcript,
    actor_name,
    random_store,
    retrieval_phase,
    run_protocol,
    store_segment,
    verification_phase,
)
from hetdapac.randomness import allocate
from hetdapac.schemes import engine
from hetdapac.wire import (
    MessageGroupDescriptor,
    QueryGroup,
    QueryTuple,
    encode_commit_value,
    encode_public,
    encode_query,
)

P322 = SystemParams(n_attrs=3, d=2, k=2, q=65537, length=2)
P432 = SystemParams(n_attrs=4, d=3, k=2, q=65537, length=6)


@pytest.mark.parametrize("scheme", ["het1", "het2", "dapac"])
def test_largest_32_bit_prime_decodes(scheme):
    params = SystemParams(n_attrs=4, d=3, k=2, q=4294967291, length=6)
    store = random_store(params, 2)
    v_star = (2, 1, 2, 1)
    msg, _, _ = run_protocol(scheme, params, v_star, store, seed=5)
    assert msg == store[message_index(v_star, params)]


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


def make_verified_actor(server, scheme, params, store, v_star, seed=0):
    actor = ServerActor(server, params)
    if actor.is_central:
        actor.handle("attribute-commit", encode_public(v_star[params.d:]))
    else:
        actor.handle("attribute-commit", encode_commit_value(server, v_star[server - 1]))
        actor.handle("attribute-relay", encode_public(v_star[params.d:]))
    pool = allocate(scheme, params, tuple(v_star[params.d:]), seed)
    actor.install_pool(pool, store)
    return actor


def query_frame(rows):
    """The frame of a one-group query to server 1 over `rows`, all ones."""
    ids, indices = (array("I", column) for column in zip(*rows))
    group = QueryGroup(MessageGroupDescriptor(ids, indices), (1,) * len(rows))
    return encode_query(QueryTuple(1, (group,)))


def test_server_slice_is_the_accessible_set():
    store = random_store(P322, 3)
    actor = make_verified_actor(1, "het1", P322, store, (1, 2, 2))
    assert set(actor.ctx.store) == {1, 3}  # v_1 = 1, public y pinned
    central = make_verified_actor(P322.central, "het1", P322, store, (1, 2, 2))
    assert set(central.ctx.store) == {1, 3, 5, 7}


def test_query_for_inaccessible_message_is_refused():
    store = random_store(P322, 3)
    actor = make_verified_actor(1, "het1", P322, store, (1, 2, 2))
    payload = query_frame(((5, 1), (7, 1)))
    with pytest.raises(AccessRefusal):
        actor.handle("query", payload)


def test_query_with_foreign_group_shape_is_rejected():
    store = random_store(P322, 3)
    actor = make_verified_actor(1, "het1", P322, store, (1, 2, 2))
    # {1, 7} is no candidate match set, so no pad chunk fits it
    payload = query_frame(((1, 1), (7, 1)))
    with pytest.raises(ConfigError):
        actor.handle("query", payload)


def test_pool_before_verification_is_rejected():
    store = random_store(P322, 3)
    actor = ServerActor(1, P322)
    with pytest.raises(ConfigError):
        actor.install_pool(allocate("het1", P322, (2,), 0), store)


def test_query_before_pool_is_rejected():
    v_star = (1, 2, 2)
    actor = ServerActor(1, P322)
    actor.handle("attribute-commit", encode_commit_value(1, v_star[0]))
    actor.handle("attribute-relay", encode_public(v_star[P322.d:]))
    _, queries = engine("het1").build(v_star, P322, derive_rng(0, "user", 0))
    with pytest.raises(ConfigError, match="before a pool"):
        actor.handle("query", encode_query(queries[1]))


@pytest.mark.parametrize("server", [1, 3])
def test_unknown_message_kind_is_refused(server):
    with pytest.raises(ConfigError, match="unknown message kind 'bogus'"):
        ServerActor(server, P322).handle("bogus", b"")


def test_install_pool_empties_the_ledger():
    store = random_store(P322, 3)
    actor = make_verified_actor(1, "het1", P322, store, (1, 2, 2))
    _, queries = engine("het1").build((1, 2, 2), P322, derive_rng(0, "user", 0))
    actor.handle("query", encode_query(queries[1]))
    assert actor.ledger  # the answer named its pads
    actor.install_pool(allocate("het1", P322, (2,), 1), store)
    assert actor.ledger == []


class HandleOnly:
    """A server as the user reaches it: a receiver of bytes, nothing more."""

    __slots__ = ("handle",)

    def __init__(self, actor):
        self.handle = actor.handle


@pytest.mark.parametrize("scheme", ["het1", "het2", "dapac"])
def test_retrieval_phase_reads_only_reply_bytes(scheme):
    # the user side gets nothing from a server but its replies; the
    # ledgers are read outside, where the pools are installed
    params, v_star, seed = P432, (1, 2, 2, 1), 4
    store = random_store(params, seed)
    transcript = Transcript(params)
    channel = Channel(transcript)
    actors = [ServerActor(n, params) for n in params.servers()]
    for actor in actors:
        channel.connect(actor_name(actor.server, params), HandleOnly(actor))
    verification_phase(channel, v_star, params)
    pool = allocate(scheme, params, v_star[params.d:], seed)
    for actor in actors:
        actor.install_pool(pool, store)
    msg = retrieval_phase(channel, pool, v_star, seed, transcript)
    assert msg == store[message_index(v_star, params)]
    _, ran, metrics = run_protocol(scheme, params, v_star, store, seed)
    assert transcript.dumps() == ran.dumps()
    consumed = {(None, label) for actor in actors for label in actor.ledger}
    assert consumed == ran.consumed and len(consumed) == metrics["randomness_consumed_chunks"]


def test_store_segment_slices_symbols():
    # the segment reads as its slices but shares the store's memory
    store = {0: array("I", [1, 2, 3, 4]), 1: array("I", [5, 6, 7, 8])}
    assert store_segment(store, 0, 2) == {0: array("I", [1, 2]), 1: array("I", [5, 6])}
    tail = store_segment(store, 2, 4)
    assert tail == {0: array("I", [3, 4]), 1: array("I", [7, 8])}
    assert all(view.obj is store[m] for m, view in tail.items())
    store[1][3] = 9
    assert tail[1] == array("I", [7, 9])


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
                                              store, seed=seed)
        # redraws stay on the client: one round is sent and consumes its
        # 12 chunks once, however many coefficients were redrawn
        assert metrics["attempts"] == 1
        assert metrics["randomness_consumed_chunks"] == 12


@pytest.mark.parametrize("scheme", ["het1", "dapac"])
def test_division_free_schemes_are_always_decodable(scheme):
    # at q=2 half of all coordinates are zero, yet neither scheme divides
    params = SystemParams(n_attrs=4, d=3, k=2, q=2, length=6)
    for seed in range(20):
        v_star = tuple(1 + (seed >> i) % 2 for i in range(4))
        plan, _ = engine(scheme).build(v_star, params, derive_rng(seed, "user", 0))
        assert {c for terms in plan.decoding.values() for *_, c in terms} == {1, -1}


def words(frame: bytes) -> list[int]:
    return [int.from_bytes(frame[i:i + 4], "little") for i in range(0, len(frame), 4)]


def reworded(edit):
    """A tamper that sends edit(words, q) of the reply frame's words."""
    def tamper(frame, q):
        return b"".join(w.to_bytes(4, "little") for w in edit(words(frame), q))
    return tamper


def extra_share(w, q):
    # one share more: the last one again, counted in the header
    return [w[0], w[1] + 1, *w[2:], *w[len(w) - w[2]:]]


def short_shares(w, q):
    # a well-formed frame whose shares each lack their last symbol
    width = w[2]
    return [w[0], w[1], width - 1, *(x for i, x in enumerate(w[3:]) if i % width < width - 1)]


# ways a server can tamper with its reply frame: server, share count and
# symbols per share, then the symbols; a negative symbol or one past 32
# bits has no word to be sent in
TAMPERS = {
    "short": lambda frame, q: frame[:-4],
    "foreign server": reworded(lambda w, q: [2, *w[1:]]),
    "extra share": reworded(extra_share),
    "short shares": reworded(short_shares),
    "symbol out of field": reworded(lambda w, q: [*w[:3], q, *w[4:]]),
    "ragged frame": lambda frame, q: frame[:-1],
    "int list": lambda frame, q: json.dumps(words(frame)).encode(),
}


@pytest.mark.parametrize("how", TAMPERS)
def test_tampered_reply_is_refused(monkeypatch, how):
    # decode reads shares by position, so server 1's reply must answer
    # its query exactly: a wrong reply is refused, never decoded
    params = SystemParams(n_attrs=4, d=3, k=2, q=65537, length=12)
    handle = ServerActor.handle

    def tampered(self, kind, payload):
        reply = handle(self, kind, payload)
        if kind == "query" and self.server == 1:
            return (reply[0], TAMPERS[how](reply[1], params.q))
        return reply

    monkeypatch.setattr(ServerActor, "handle", tampered)
    with pytest.raises(ConfigError, match="server 1"):
        run_protocol("het2", params, (1, 2, 1, 2), random_store(params, 3), seed=3)
