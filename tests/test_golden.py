"""Golden outputs: exact transcripts and metrics at the acceptance points.

Each case runs one retrieval at a fixed seed and hashes the transcript dump
together with the canonical JSON of its metrics. Any change to group rows,
vectors, pads, answers, wire framing or accounting moves the hash, so a
refactor that claims identical behaviour must leave every value here as is.

Every message on the channel is `bytes`, and each record's digest is the
sha256 of the bytes sent: word frames for queries and answers, canonical
JSON for verification. Queries and answers were once JSON dicts, answers
first with int-list payloads; FRAMING and QUERY_LIST_FORM pin what that
format gave, so the move to frames stays provably the framing alone. Each
query frame decodes to the query whose list-form JSON digest the old
record carried, each answer frame to the symbols of the old int lists, and
the dump with those digests put back is the old dump with answer digests
blanked. Verification bytes did not change, so neither did their digests.

Each record's symbol count is the count its bytes carry, recomputed here
by decoding them. Every message sent in a case is also fed, truncated,
extended and with bytes flipped, to the decoder that receives it: each
copy must be answered or refused with ConfigError or AccessRefusal, and
must still get a symbol count.
"""

from __future__ import annotations

import copy
import hashlib
import json
import random
from array import array
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
from hetdapac import audit, harness
from hetdapac.errors import AccessRefusal, ConfigError
from hetdapac.harness import Channel, _checked_reply
from hetdapac.schemes import base
from hetdapac.schemes.base import MEMO
from hetdapac.wire import (
    AnswerShare,
    canonical_json,
    decode_answers,
    decode_query,
    encode_answers,
    encode_query,
    frame_symbols,
    payload_digest,
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
    # a small field, where het2 redraws a zero it divides by (retries 1)
    "het2-q5": (SystemParams(n_attrs=4, d=3, k=2, q=5, length=6), (1, 2, 2, 1)),
}

GOLDEN = {
    "het1": "ea9a1db077c1ad3aa1d0809b203444dd9c31e12c5cafe4df667f60aa30f53b62",
    "het2": "7bf07f51f1d80eab3a061e08bec8681299f3251fe2e909c30c525787cb7c3697",
    "dapac": "b5a3a4e5a2dfff2b1d1a6798f3e2bbeb8748f437c320cbb0d23a2eaa92867151",
    "mix": "a1f07bcac1de61db27166267324f7079e4c7c8370b52f5f5228e87ab30d37fe6",
    "het2-rest": "f173d933881bcd0612ac7f2eed45b40ac0836c1dd78a18ae9324f4a55cb34965",
    "dapac-public": "d6844a9eb3e2d888e32237c32e7ae8e9f1e738af163ce467bcb4230a261e311c",
    "het2-packed": "c84e3494cd4b7e2a8988e347275cec33b288bd530db356a6a9c3adc4431740d2",
    "het1-packed-wide-q": "3f9352ee794c20992d2aa4ca395aac1c8ee6d4c5c2a80184e273209ecc1ab7e9",
    "het2-q5": "873c188b01dd417f90338c41711d3b9668257b2fa982faf9d2266b111bb2b2d1",
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


def test_the_small_field_case_redraws_once():
    # the one case that redraws: a zero at a place het2 divides by
    _, metrics = run_case("het2-q5")
    assert (metrics["retries"], metrics["attempts"]) == (1, 1)


# sha256 of the canonical `audit.run_suite("correctness")` report: 50
# seeded runs per v* at each correctness point, decoded and compared
CORRECTNESS_SUITE = "c0a07e59a96312fc1dd9cb046c98c327675857072b0d6f812835b12e45f95552"


def test_correctness_suite_report_is_pinned():
    report = audit.run_suite("correctness")
    assert hashlib.sha256(canonical(report).encode()).hexdigest() == CORRECTNESS_SUITE


def test_a_remembered_column_answers_as_a_first_sight(monkeypatch):
    # every case twice from an empty memo: the second run matches no id
    # column against a table, as each was remembered by the first, and
    # hashes as the first does
    built = []

    def counting(msgs):
        built.append(msgs)
        return frozenset(msgs)

    MEMO.clear()
    monkeypatch.setattr(base, "frozenset", counting, raising=False)
    first_sights = 0
    for kind in sorted(CASES):
        for second in (False, True):
            built.clear()
            transcript, metrics = run_case(kind)
            blob = transcript.dumps() + canonical(metrics)
            assert hashlib.sha256(blob.encode()).hexdigest() == GOLDEN[kind], (kind, second)
            assert not (second and built), kind
            first_sights += len(built)
    assert first_sights


def test_mix_transcript_holds_one_pool_per_segment():
    transcript, metrics = run_case("mix")
    pools = transcript.pools
    assert set(pools) == {"dapac", "het1"}
    assert all(pool.scheme == tag and pool.params.length == 6 for tag, pool in pools.items())
    assert metrics["randomness_allocated_chunks"] == sum(
        pool.allocated_chunks for pool in pools.values())
    assert metrics["randomness_allocated_symbols"] == 36  # KL(lambda(K-1) + 1)
    assert metrics["randomness_consumed_symbols"] == 30   # L(K + lambda(K-1))
    blob = transcript.dumps() + canonical(metrics)
    assert hashlib.sha256(blob.encode()).hexdigest() == GOLDEN["mix"]


@pytest.mark.parametrize("kind", sorted(CASES))
def test_every_query_decodes_to_itself(kind, monkeypatch):
    queries = []

    def recording(query):
        queries.append(query)
        return encode_query(query)

    monkeypatch.setattr(harness, "encode_query", recording)
    run_case(kind)
    assert queries
    for query in queries:
        decoded = decode_query(encode_query(query))
        assert decoded == query
        # each vector arrives as the `array('I')` it was sent as
        for sent, got in zip(query.groups, decoded.groups):
            assert type(sent.vector) is type(got.vector) is array
            assert got.vector.typecode == sent.vector.typecode == "I"
            assert got.vector == sent.vector


def recorded_case(kind: str, monkeypatch):
    """run_case, plus every request sent: (receiver as it was when the
    request arrived, kind, payload, reply payload or None)."""
    sent = []
    request = Channel.request

    def recording(self, phase, sender, receiver, kind, payload, *args, **kwargs):
        actor = copy.copy(self.actors[receiver])
        reply = request(self, phase, sender, receiver, kind, payload, *args, **kwargs)
        sent.append((actor, kind, payload, reply))
        return reply

    monkeypatch.setattr(Channel, "request", recording)
    transcript, metrics = run_case(kind)
    return transcript, metrics, sent


def record_payloads(sent) -> list[bytes]:
    """Each record's payload, in transcript order."""
    return [p for _, _, payload, reply in sent
            for p in ([payload] if reply is None else [payload, reply])]


def list_form_digest(query) -> str:
    """The digest a query had as a JSON dict of row and vector lists."""
    return hashlib.sha256(canonical_json({
        "server": query.server,
        "groups": [{"rows": [list(row) for row in g.descriptor.rows], "vector": list(g.vector)}
                   for g in query.groups],
    })).hexdigest()


def int_list_digest(frame: bytes) -> str:
    """The digest an answer had as a JSON dict of int lists."""
    shares = decode_answers(frame)
    return hashlib.sha256(canonical_json({
        "server": shares[0].server,
        "shares": [{"group": s.group_index, "payload": list(s.payload)} for s in shares],
    })).hexdigest()


@pytest.mark.parametrize("kind", sorted(CASES))
def test_every_digest_is_the_sha256_of_the_bytes_sent(kind, monkeypatch):
    transcript, _, sent = recorded_case(kind, monkeypatch)
    payloads = record_payloads(sent)
    assert all(type(p) is bytes for p in payloads)
    assert [r.digest for r in transcript.records] == [
        hashlib.sha256(p).hexdigest() for p in payloads]


def decoded_symbols(kind: str, payload: bytes) -> int:
    """The symbols a message carries, counted over its decoded contents."""
    if kind == "query":
        return sum(len(g.vector) for g in decode_query(payload).groups)
    if kind == "answer":
        return sum(len(s.payload) for s in decode_answers(payload))
    return 0


@pytest.mark.parametrize("kind", sorted(CASES))
def test_every_record_counts_the_symbols_its_bytes_carry(kind, monkeypatch):
    transcript, _, sent = recorded_case(kind, monkeypatch)
    assert [r.symbols for r in transcript.records] == [
        decoded_symbols(r.kind, p) for r, p in zip(transcript.records, record_payloads(sent))]


def test_mix_consumes_each_segment_from_its_own_pool():
    # the servers' ledgers, tagged by segment: dapac's pads are pairwise
    # chunks, het1's one chunk per candidate match set
    transcript, _ = run_case("mix")
    assert {(tag, label[0]) for tag, label in transcript.consumed} == {
        ("dapac", "pair"), ("het1", "nk")}


# Pinned with the dict format, per case: (sha256 of the dump with every
# answer record's digest blank, sha256 of the answer records' int-list
# digests concatenated in record order).
FRAMING = {
    "dapac": ("9956c512c03f9f1404c3a53f3e46e1218e7de65259e234776d2dba13c364c63b",
              "6b8d427cbd9b0b9ed50bc7b952e8d27dd4c1084e304db8c9b598a7e74fb59f20"),
    "dapac-public": ("e2c4eaa9b1a163f08208028998c92f3ca9686f4811002ca0503ee657acd9c1ee",
                     "8a5ea11855b3673b335b5dbbfb716a70bc5b6947e1f5d55e16e6bbf0cdc75914"),
    "het1": ("6422b24d13b32affb4e2ab149fe3c167aadcaa0eb303c0c12bd28a4d65cd3c48",
             "1a4886eb49294b5dfbc3e00ac4774db749ca11e0b3586838c052224f8463e659"),
    "het1-packed-wide-q": ("5274ee2e5f6094331550540021f86a253da071962ec56f4d15efc35187803846",
                           "305fb467f0e4b685a35badbafb7d6abf67caa5d3e519ac98aff50f4a7d2f98dd"),
    "het2": ("0173ec822b9ad93821e277b87a3d51c06363ffea8d313c68694137f147830044",
             "e268925b8d4966db1442cb1147f425be9748e91d7791b17e9f41112910a16337"),
    "het2-packed": ("414e93fc2965cce79282896f44cf8ea8cc8b35ac73042b7f46de4ad7315a6113",
                    "6f78904b52e0d2f8486fd9b7867ffde0f020d70ca94f8b475f56fc6885e488b5"),
    "het2-rest": ("a4b57875eec7d497f1664a43fe870641a3ad22e9716a7668c2db39cb559dc9c5",
                  "e3ed93271f1f68ef50822e98107a7eed796aa20b79de71c56a903aa18dce70aa"),
    "mix": ("d4a3bbf2f5c3f73ab7dd3a6b4d91486518fb25016d0d0ed61bccfac44858a6bf",
            "583e804df735dd89b4d3e13dcd56996b296039371892fda201b6bdb243e6e8f9"),
    "het2-q5": ("075eb00260a906b1a361dc2c30f639b8c17f765e986545fb7e7d94890cd8b756",
                "435b33d928a11e8a6393af4e7df605bc101cb71447a51b0a76208965c5de3457"),
}


@pytest.mark.parametrize("kind", sorted(CASES))
def test_only_the_answer_framing_moved(kind, monkeypatch):
    # with each query record's digest put back to its list-form digest,
    # the dump is the dict format's, answer digests blanked
    transcript, _, sent = recorded_case(kind, monkeypatch)
    payloads = record_payloads(sent)
    old = {"query": lambda p: list_form_digest(decode_query(p)), "answer": lambda p: ""}
    transcript.records = [r._replace(digest=old[r.kind](p)) if r.kind in old else r
                          for r, p in zip(transcript.records, payloads)]
    blanked = hashlib.sha256(transcript.dumps().encode()).hexdigest()
    answers = [p for r, p in zip(transcript.records, payloads) if r.kind == "answer"]
    int_lists = hashlib.sha256("".join(map(int_list_digest, answers)).encode()).hexdigest()
    assert (blanked, int_lists) == FRAMING[kind]


# Pinned with the dict format, per case: sha256 of the query records'
# digests concatenated in record order.
QUERY_LIST_FORM = {
    "dapac": "4a165d87745134808a4d8e055f2c3654e258dfb4c3401d163fdf552b7027bb2c",
    "dapac-public": "e4d1f09737d211f1579aded5903f97250655339afbd57c98202cf58137ea4d83",
    "het1": "98969acd745519093caa27d6119c33051f6847cc5faf49985a9e90c058fdcfc5",
    "het1-packed-wide-q": "05e3e34daaf7cee4b6d7311b9c08b969ab050f74dccc43d8acb43ad40464399a",
    "het2": "f42bbc14fe80ee1ae2b879c063c1ee7b33f3eff21870b6bcbf29df6ea555cabb",
    "het2-packed": "f42bbc14fe80ee1ae2b879c063c1ee7b33f3eff21870b6bcbf29df6ea555cabb",
    "het2-rest": "b6336071ab48d37ea452f7c314ef2f74687a23d28b540661698fce8ac8b6d158",
    "mix": "be4af44462d27b3b8e327862a763a5dd8a3805ab25d069b3e7920a075cf59b00",
    "het2-q5": "c7c10652acaddd383dd42c36a1d7120f0a84db0d6538dd12a7e7a23685a77d4f",
}


@pytest.mark.parametrize("kind", sorted(CASES))
def test_query_payloads_digest_as_their_list_form(kind, monkeypatch):
    # each query frame decodes to the query the dict format sent, and
    # encodes back to the same bytes
    transcript, _, sent = recorded_case(kind, monkeypatch)
    frames = [payload for _, kind, payload, _ in sent if kind == "query"]
    queries = list(map(decode_query, frames))
    assert list(map(encode_query, queries)) == frames
    assert [r.digest for r in transcript.records if r.kind == "query"] == list(
        map(payload_digest, frames))
    listed = "".join(map(list_form_digest, queries))
    assert hashlib.sha256(listed.encode()).hexdigest() == QUERY_LIST_FORM[kind]


def test_answer_frame_bytes_are_little_endian():
    # pinned bytes stand in for a big-endian host: a frame is the same
    # words and the same digest on every host
    share = AnswerShare(server=3, group_index=0, payload=array("I", [1, 65536, 2 ** 32 - 1]))
    frame = encode_answers(3, [share])
    assert frame == (b"\x03\x00\x00\x00" b"\x01\x00\x00\x00" b"\x03\x00\x00\x00"
                     b"\x01\x00\x00\x00" b"\x00\x00\x01\x00" b"\xff\xff\xff\xff")
    assert payload_digest(frame) == hashlib.sha256(frame).hexdigest()
    assert decode_answers(frame) == [share]


def mutations(payload: bytes, rng: random.Random) -> list[bytes]:
    """Truncated, extended and byte-flipped copies of `payload`: every
    header byte's top bit flipped, and bytes flipped at random."""
    size = len(payload)
    cuts = {0, 1, 3, 4, size // 2, size - 4, size - 1, rng.randrange(size)}
    out = [payload[:n] for n in sorted(cuts) if 0 <= n < size]
    out += [payload + rng.randbytes(n) for n in (1, 3, 4, 12)] + [payload * 2]
    flips = [(i, 0x80) for i in range(min(size, 16))]
    flips += [(rng.randrange(size), rng.randrange(1, 256)) for _ in range(16)]
    for i, bits in flips:
        flipped = bytearray(payload)
        flipped[i] ^= bits
        out.append(bytes(flipped))
    return out


def answered_or_refused(call, kind, frame):
    symbols = frame_symbols(kind, frame)
    assert type(symbols) is int and symbols >= 0
    try:
        call()
    except (ConfigError, AccessRefusal):
        pass


@pytest.mark.parametrize("kind", sorted(CASES))
def test_byte_mutations_are_answered_or_refused(kind, monkeypatch):
    # any other exception escaping a decoder fails the test
    _, _, sent = recorded_case(kind, monkeypatch)
    rng = random.Random(f"mutation/{kind}")
    for actor, msg_kind, payload, reply in sent:
        received = mutations(payload, rng)
        if msg_kind != "query":
            received.append(b"[" * 100000)  # json.loads raises RecursionError
        for frame in received:
            answered_or_refused(lambda: copy.copy(actor).handle(msg_kind, frame),
                                msg_kind, frame)
        if msg_kind == "query":
            query, length = decode_query(payload), actor.ctx.pool.chunk_len
            assert _checked_reply(reply, query, length, actor.params.q)
            for frame in mutations(reply, rng):
                answered_or_refused(
                    lambda: _checked_reply(frame, query, length, actor.params.q),
                    "answer", frame)
