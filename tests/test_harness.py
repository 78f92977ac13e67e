"""Protocol harness: transcripts, determinism, actor behavior, refusals."""

from __future__ import annotations

import json
from array import array
from fractions import Fraction

import pytest

from hetdapac import harness
from hetdapac.access import SystemParams, message_index
from hetdapac.errors import AccessRefusal, ConfigError
from hetdapac.field import derive_rng
from hetdapac.harness import (
    Channel,
    ServerActor,
    Transcript,
    _checked_reply,
    actor_name,
    random_store,
    retrieval_phase,
    run_protocol,
    store_segment,
    verification_phase,
)
from hetdapac.mixer import plan_mix, run_time_shared
from hetdapac.randomness import allocate
from hetdapac.schemes import engine
from hetdapac.schemes.base import PACK_MIN_SYMBOLS
from hetdapac.wire import (
    AnswerShare,
    MessageGroupDescriptor,
    QueryGroup,
    QueryTuple,
    encode_answers,
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


@pytest.mark.parametrize("run", ["het1", "dapac", "mix"])
def test_a_stored_symbol_at_or_above_q_decodes_as_its_residue(run):
    # the servers read the store as symbols of F_5: 7 answers as 2 and 5
    # as 0, so the decoded message is the stored one mod q
    stored, residues = [7, 5, 9, 6], [2, 0, 4, 1]
    length = 4 if run == "mix" else 2
    params = SystemParams(n_attrs=3, d=2, k=2, q=5, length=length)
    v_star = (1, 2, 1)
    store = random_store(params, 0)
    store[message_index(v_star, params)] = array("I", stored[:length])
    if run == "mix":
        msg, _, _ = run_time_shared(plan_mix(params, Fraction(1, 2)), v_star, store, 0)
    else:
        msg, _, _ = run_protocol(run, params, v_star, store, 0)
    assert msg == array("I", residues[:length])


def test_a_store_over_the_symbol_budget_is_refused_before_drawing(monkeypatch):
    def unused(*args):
        raise AssertionError("a refused store drew symbols")

    monkeypatch.setattr(harness, "uniform_arrays", unused)
    top = SystemParams(n_attrs=16, d=2, k=4, q=65537, length=1)  # 2^32 messages
    assert top.message_count > harness.STORE_SYMBOLS
    with pytest.raises(ConfigError, match=f"4294967296 symbols, over the {harness.STORE_SYMBOLS}"):
        random_store(top, 0)
    # a store of the budget exactly, 4^14 messages of one symbol, is drawn
    drawn = []
    monkeypatch.setattr(harness, "uniform_arrays",
                        lambda rng, q, length, count: drawn.append((length, count)) or [])
    random_store(SystemParams(n_attrs=14, d=2, k=4, q=65537, length=1), 0)
    assert drawn == [(1, harness.STORE_SYMBOLS)]


@pytest.mark.parametrize("params", [None, (3, 2, 2), P322.__dict__])
def test_run_protocol_refuses_params_of_another_type(params):
    with pytest.raises(ConfigError, match="params must be a SystemParams"):
        run_protocol("het1", params, (1, 2, 1), random_store(P322, 1), 1)


@pytest.mark.parametrize("mix", [None, P322, ("dapac", "het1")])
def test_run_time_shared_refuses_a_mix_of_another_type(mix):
    with pytest.raises(ConfigError, match="mix must be a MixPlan"):
        run_time_shared(mix, (1, 2, 1), random_store(P322, 1), 1)


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
    # a server holds the store whole, uncopied, and its view grants the
    # accessible set
    store = random_store(P322, 3)
    actor = make_verified_actor(1, "het1", P322, store, (1, 2, 2))
    assert actor.ctx.view.granted == {1, 3}  # v_1 = 1, public y pinned
    central = make_verified_actor(P322.central, "het1", P322, store, (1, 2, 2))
    assert central.ctx.view.granted == {1, 3, 5, 7}
    assert actor.ctx.store is store and central.ctx.store is store


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


# A malformed store is refused when a server installs its pool, naming
# the message. Server 1 installs first; at v* = (1, 1, 1) on (3, 2, 2) it
# is granted messages 0 and 2. At L = 64 the sub-packets reach the packed
# kernel, which would pad a short row with zeros rather than fail.
def cut_store(params, drop, cut):
    """A random store less message `drop`, each message of `cut` cut to
    the symbols it names."""
    store = random_store(params, 0)
    if drop is not None:
        del store[drop]
    for m, kept in cut.items():
        store[m] = store[m][:kept]
    return store


@pytest.mark.parametrize("length, drop, cut, message", [
    (4, 0, {}, "store holds no message 0 for server 1"),
    (4, None, dict.fromkeys(range(8), 3),
     "message 0 holds 3 symbols; server 1 answers from symbols [0, 4)"),
    (4, None, {2: 3}, "message 2 holds 3 symbols; server 1 answers from symbols [0, 4)"),
    (64, None, dict.fromkeys(range(8), 40),
     "message 0 holds 40 symbols; server 1 answers from symbols [0, 64)"),
], ids=["missing", "short", "one-short", "short-packed"])
def test_a_pure_run_refuses_a_malformed_store(length, drop, cut, message):
    params = SystemParams(n_attrs=3, d=2, k=2, q=65537, length=length)
    with pytest.raises(ConfigError) as exc:
        run_protocol("het1", params, (1, 1, 1), cut_store(params, drop, cut), 3)
    assert str(exc.value) == message


@pytest.mark.parametrize("length, drop, cut, message", [
    (12, 0, {}, "store holds no message 0 for server 1"),
    (12, None, {0: 5}, "message 0 holds 5 symbols; server 1 answers from symbols [0, 6)"),
    (12, None, {0: 10}, "message 0 holds 10 symbols; server 1 answers from symbols [6, 12)"),
    (128, None, {0: 100},
     "message 0 holds 100 symbols; server 1 answers from symbols [64, 128)"),
], ids=["missing", "short-first-segment", "short-second-segment", "short-packed"])
def test_a_mix_refuses_a_malformed_store(length, drop, cut, message):
    # a message must reach the end of every segment's range, not only the
    # first one's
    params = SystemParams(n_attrs=3, d=2, k=2, q=65537, length=length)
    with pytest.raises(ConfigError) as exc:
        run_time_shared(plan_mix(params, Fraction(1, 2)), (1, 1, 1),
                        cut_store(params, drop, cut), 3)
    assert str(exc.value) == message


def test_upload_symbols_counted_per_query():
    store = random_store(P322, 7)
    _, transcript, _ = run_protocol("het1", P322, (1, 1, 2), store, seed=0)
    uploads = {r.receiver: r.symbols for r in transcript.records if r.kind == "query"}
    # vectors: one group of 2 per dedicated server, four groups of 2 centrally
    assert uploads == {"server1": 2, "server2": 2, "central": 8}


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


# moduli around every lane-test boundary: 2 and 3 (b = 2, where 2^b - q
# is 2 and 1), Fermat's prime 65537, the largest prime below 2^31, and the
# largest below 2^32, whose lanes have no spare bit and so are scanned
REPLY_MODULI = [2, 3, 65537, 2 ** 31 - 1, 4294967291]


def reply_of(last_word: int, q: int, width: int) -> tuple[bytes, QueryTuple]:
    """Server 1's reply of 3 shares of `width` symbols, every symbol q - 1
    but the last share's last, and a query it answers in shape."""
    shares = [AnswerShare(1, g, array("I", [q - 1]) * width) for g in range(3)]
    shares[-1].payload[-1] = last_word
    group = QueryGroup(MessageGroupDescriptor(array("I"), array("I")), ())
    return encode_answers(1, shares), QueryTuple(1, (group,) * 3)


@pytest.mark.parametrize("q", REPLY_MODULI)
@pytest.mark.parametrize("width", [PACK_MIN_SYMBOLS - 1, PACK_MIN_SYMBOLS, 20000])
def test_reply_symbols_at_the_field_bound(q, width):
    # the lane test from PACK_MIN_SYMBOLS symbols on and the scan below it
    # refuse the same words: q itself, the first word with bit b set, b the
    # bit length of q, when it fits in a word, and the largest word
    reply, query = reply_of(q - 1, q, width)
    shares = _checked_reply(reply, query, width, q)
    assert [list(s.payload) for s in shares] == [[q - 1] * width] * 3
    for word in {q, 1 << q.bit_length(), 2 ** 32 - 1} - {2 ** 32}:
        reply, query = reply_of(word, q, width)
        with pytest.raises(ConfigError, match=f"server 1 sent a symbol outside F_{q}"):
            _checked_reply(reply, query, width, q)
