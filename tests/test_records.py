"""The records a run builds without their constructors are the ones the
constructors build.

A plan's queries (`PlanTrace.project`), a server's shares
(`answer_query`), the decoders' records and the transcript's are made
with `tuple.__new__`, past the public constructors' checks. Each must
equal, and be of the same type at every level as, the record the public
constructor builds from its fields.
"""

from __future__ import annotations

from array import array
from fractions import Fraction

import pytest

from hetdapac import MixPlan, SystemParams, harness, random_store, run_protocol, run_time_shared
from hetdapac.harness import Record
from hetdapac.wire import (
    AnswerShare,
    MessageGroupDescriptor,
    QueryGroup,
    QueryTuple,
    decode_answers,
    decode_query,
    encode_answers,
    encode_query,
)

RUNS = {
    "het1": (SystemParams(n_attrs=3, d=2, k=2, length=2), (1, 2, 2)),
    "het2": (SystemParams(n_attrs=5, d=4, k=2, length=10), (1, 2, 1, 2, 2)),
    "dapac": (SystemParams(n_attrs=4, d=3, k=3, length=3), (3, 1, 2, 2)),
    "mix": (SystemParams(n_attrs=3, d=2, k=2, length=12), (2, 1, 2)),
}


def same(a, b):
    """`a == b`, and every level of `a` of the type of the same level of `b`."""
    assert type(a) is type(b), (a, b)
    if isinstance(a, array):
        assert (a.typecode, a) == (b.typecode, b)
    elif isinstance(a, (tuple, list)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            same(x, y)
    else:
        assert a == b


def public_query(query) -> QueryTuple:
    return QueryTuple(server=query.server, groups=tuple(
        QueryGroup(descriptor=MessageGroupDescriptor(g.descriptor.ids, g.descriptor.indices),
                   vector=g.vector)
        for g in query.groups))


def public_shares(shares) -> list[AnswerShare]:
    return [AnswerShare(server=s.server, group_index=s.group_index, payload=s.payload)
            for s in shares]


def recorded_run(kind: str, monkeypatch):
    """The run's transcript, every query its plans built and every share
    list its servers answered, as handed to the encoders."""
    queries, answers = [], []

    def sent_query(query):
        queries.append(query)
        return encode_query(query)

    def sent_answers(server, shares):
        answers.append((server, shares))
        return encode_answers(server, shares)

    monkeypatch.setattr(harness, "encode_query", sent_query)
    monkeypatch.setattr(harness, "encode_answers", sent_answers)
    params, v_star = RUNS[kind]
    store = random_store(params, 5)
    if kind == "mix":
        _, transcript, _ = run_time_shared(MixPlan(params, Fraction(1, 2)), v_star, store, 5)
    else:
        _, transcript, _ = run_protocol(kind, params, v_star, store, 5)
    return transcript, queries, answers


@pytest.mark.parametrize("kind", sorted(RUNS))
def test_built_records_are_the_constructors(kind, monkeypatch):
    transcript, queries, answers = recorded_run(kind, monkeypatch)
    assert queries and answers and transcript.records
    for query in queries:
        want = public_query(query)
        same(query, want)
        same(decode_query(encode_query(query)), want)
    for server, shares in answers:
        want = public_shares(shares)
        same(shares, want)
        same(decode_answers(encode_answers(server, shares)), want)
    for rec in transcript.records:
        same(rec, Record(**rec._asdict()))


def test_encoders_take_hand_built_tuple_columns():
    def columns(*values):
        return [array("I", v) for v in values]

    query = QueryTuple(2, (QueryGroup(MessageGroupDescriptor((4, 9), (1, 2)), (7, 0)),
                           QueryGroup(MessageGroupDescriptor((5,), (2,)), (3,))))
    ids, indices, vector = columns((4, 9), (1, 2), (7, 0))
    more_ids, more_indices, more_vector = columns((5,), (2,), (3,))
    same(decode_query(encode_query(query)),
         QueryTuple(2, (QueryGroup(MessageGroupDescriptor(ids, indices), vector),
                        QueryGroup(MessageGroupDescriptor(more_ids, more_indices), more_vector))))
    shares = [AnswerShare(3, 0, (1, 2)), AnswerShare(3, 1, (0, 6))]
    same(decode_answers(encode_answers(3, shares)),
         [AnswerShare(3, g, array("I", s.payload)) for g, s in enumerate(shares)])
