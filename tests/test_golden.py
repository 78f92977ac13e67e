"""Golden outputs: exact transcripts and metrics at the acceptance points.

Each case runs one retrieval at a fixed seed and hashes the transcript dump
together with the canonical JSON of its metrics. Any change to group rows,
vectors, pads, answers, wire framing or accounting moves the hash, so a
refactor that claims identical behaviour must leave every value here as is.

When answers moved from JSON int lists to binary frames, only the answer
records' digests changed. FRAMING pins what the int-list format gave, so
that change stays provably the framing alone: the dump with answer digests
blanked, and the int-list digests recomputed from the frames' symbols.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
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
from hetdapac.harness import ServerActor
from hetdapac.wire import (
    AnswerShare,
    canonical_json,
    decode_answers,
    encode_answers,
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
}

GOLDEN = {
    "het1": "9648d1f50ce9e04e05a31077bcbfd144ca92c3218c4973ecc59556eef947e88c",
    "het2": "ccc80b3d1282ec5c7a85bee02d17cfaab746f6e49d97ce5921810a33a6b3d04b",
    "dapac": "643f1cf5eab5f1542840dac7f899ec6cc83613e3745a2696182b749cae87205b",
    "mix": "075bf78608b95b88cc7794b3e08360fa18668cf9fc06ea8f617e36e5afcad4a9",
    "het2-rest": "d58c4b2b8f57159fea0afd90d0b0cf00f233abf0dd3f87c564ecaec426f46395",
    "dapac-public": "6f0eeca9bc971596a58346d8f1147b50b634f46a937d0ef7d099fd7901b6d189",
    "het2-packed": "c04d3b7f8abb9a4b93c924ef12369606e5ff0b15ff0ff99c7746e0908c1bd830",
    "het1-packed-wide-q": "39d61bdb1ee3135c4b0aedd4c0ad522278a95e05dd3749e733debfb99e8cb044",
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


# Pinned with the int-list answer format, per case: (sha256 of the dump
# with every answer record's digest blank, sha256 of the answer records'
# int-list digests concatenated in record order).
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
}


def int_list_digest(reply: dict) -> str:
    """The digest an answer had as a JSON int list, from its frames."""
    shares = decode_answers(reply)
    return hashlib.sha256(canonical_json({
        "server": reply["server"],
        "shares": [{"group": s.group_index, "payload": list(s.payload)} for s in shares],
    }, [])).hexdigest()


@pytest.mark.parametrize("kind", sorted(CASES))
def test_only_the_answer_framing_moved(kind, monkeypatch):
    replies = []
    handle = ServerActor.handle

    def recording(self, kind, payload):
        reply = handle(self, kind, payload)
        if reply is not None and reply[0] == "answer":
            replies.append(reply[1])
        return reply

    monkeypatch.setattr(ServerActor, "handle", recording)
    transcript, _ = run_case(kind)
    answers = [r for r in transcript.records if r.kind == "answer"]
    assert [r.digest for r in answers] == list(map(payload_digest, replies))
    transcript.records = [dataclasses.replace(r, digest="") if r.kind == "answer" else r
                          for r in transcript.records]
    blanked = hashlib.sha256(transcript.dumps().encode()).hexdigest()
    int_lists = hashlib.sha256("".join(map(int_list_digest, replies)).encode()).hexdigest()
    assert (blanked, int_lists) == FRAMING[kind]


def test_answer_frame_bytes_are_little_endian():
    # pinned bytes stand in for a big-endian host: a frame is the same
    # words and the same digest on every host
    share = AnswerShare(server=3, group_index=0, payload=array("I", [1, 65536, 2 ** 32 - 1]))
    reply = encode_answers([share])
    assert reply == {"server": 3, "shares": [
        {"group": 0, "payload": b"\x01\x00\x00\x00\x00\x00\x01\x00\xff\xff\xff\xff"}]}
    # sha256 of b'{"server":3,"shares":[{"group":0,"payload":12}]}' + frame
    assert payload_digest(reply) == (
        "f011fe7fab2c0dcab6a2ee8177bf6950b36cbcb460b00194470ac999b0b0a588")
    assert decode_answers(reply) == [share]


@pytest.mark.parametrize("kind", sorted(CASES))
def test_query_payloads_digest_as_their_list_form(kind, monkeypatch):
    # encode_query passes rows and vectors through as tuples; JSON writes
    # them as arrays, so each digest is that of the list-of-lists payload
    queries = []
    handle = ServerActor.handle

    def recording(self, kind, payload):
        if kind == "query":
            queries.append(payload)
        return handle(self, kind, payload)

    monkeypatch.setattr(ServerActor, "handle", recording)
    transcript, _ = run_case(kind)
    listed = [{"server": p["server"],
               "groups": [{"rows": [list(row) for row in g["rows"]], "vector": list(g["vector"])}
                          for g in p["groups"]]}
              for p in queries]
    sent = [r.digest for r in transcript.records if r.kind == "query"]
    assert sent == list(map(payload_digest, queries)) == list(map(payload_digest, listed))
    assert all(type(g["rows"]) is tuple and type(g["vector"]) is tuple
               for p in queries for g in p["groups"])
