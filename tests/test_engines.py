"""The engine registry against the closed-form cost table, the contract
every engine keeps, and a guard that keeps scheme tags out of the
modules every scheme passes through.

Each engine module is the one definition of its scheme; `scheme_costs`
is the independent oracle. The pool an engine allocates, and whether it
queries the central server, must agree with that oracle. The contract
states once, for every engine, what makes it a valid scheme; the scheme
files keep only their paper walkthroughs.
"""

from __future__ import annotations

import ast
from array import array
from dataclasses import replace
from pathlib import Path

import pytest
from test_field import every_vector, per_call_plan

import hetdapac
from hetdapac.access import SystemParams, accessible_messages, message_index, participating_ids
from hetdapac.audit import closed_forms, privacy_servers
from hetdapac.errors import ConfigError, DivisibilityError
from hetdapac.field import derive_rng
from hetdapac.harness import actor_name, random_store, run_protocol
from hetdapac.mixer import scheme_costs
from hetdapac.schemes import ENGINES, engine
from hetdapac.schemes.base import plan_trace
from hetdapac.wire import encode_query, payload_digest

INTERFACE = ("SCHEME", "QUERIES_CENTRAL", "subpackets", "pool_labels",
             "trace", "build", "label_table", "answer_query", "decode")

SHAPES = [(d, k) for d in range(1, 7) for k in (2, 3)]


@pytest.mark.parametrize("tag", sorted(ENGINES))
def test_every_engine_exposes_the_interface(tag):
    eng = engine(tag)
    missing = [name for name in INTERFACE if not hasattr(eng, name)]
    assert missing == []
    assert eng.SCHEME == tag


@pytest.mark.parametrize("d, k", SHAPES)
def test_pools_and_central_queries_match_the_oracle(d, k):
    costs = scheme_costs(d, k)
    for tag, cost in costs.items():
        eng = engine(tag)
        length = eng.subpackets(d)
        params = SystemParams(n_attrs=d + 1, d=d, k=k, length=length)
        labels = eng.pool_labels(params)
        assert len(labels) == len(set(labels)) and labels == sorted(labels)
        assert len(labels) * (length // eng.subpackets(d)) == cost.allocated * length
        assert eng.QUERIES_CENTRAL == (cost.central != 0)
    # a scheme the oracle leaves out at this D refuses it
    for tag in set(ENGINES) - set(costs):
        with pytest.raises(ConfigError, match=f"{tag} needs D >="):
            engine(tag).subpackets(d)


# The engine contract. Its points are each scheme's walkthrough point and
# a D = 4 point; the retrievals run there at q = 2 and q = 5.
CONTRACT_POINTS = [
    ("het1", SystemParams(n_attrs=3, d=2, k=2, length=2)),
    ("het1", SystemParams(n_attrs=5, d=4, k=2, length=4)),
    ("het2", SystemParams(n_attrs=4, d=3, k=2, length=6)),
    ("het2", SystemParams(n_attrs=5, d=4, k=2, length=10)),
    ("dapac", SystemParams(n_attrs=3, d=3, k=2, length=3)),
    ("dapac", SystemParams(n_attrs=4, d=4, k=2, length=6)),
]
contract = pytest.mark.parametrize(
    "scheme, params", CONTRACT_POINTS,
    ids=[f"{s}-{p.n_attrs}{p.d}{p.k}" for s, p in CONTRACT_POINTS])
BELOW_BOUND = {"dapac": 1, "het2": 2}  # the largest D each refuses; het1 takes every D


@contract
def test_each_queried_server_is_sent_its_slice_under_fresh_indices(scheme, params):
    for v_star in every_vector(params):
        trace = plan_trace(scheme, params, v_star)
        assert sorted(trace.groups) == list(privacy_servers(scheme, params))
        for server, groups in trace.groups.items():
            rows = [row for g in groups for row in g.rows]
            assert {m for m, _ in rows} == set(accessible_messages(server, v_star, params))
            assert len(set(rows)) == len(rows)  # a message's indices are distinct
        # every decode term reads a share that is sent
        assert all(gi < len(trace.groups[server])
                   for terms in trace.decoding.values() for server, gi, _ in terms)


@contract
def test_wire_indices_follow_private_permutations(scheme, params):
    # the permutation of the message at position p among the participating
    # ones is the flat column's words [p * S, (p + 1) * S): every row's
    # wire index, and where each decoded sub-packet goes, are read there
    size = engine(scheme).subpackets(params.d)
    rng = derive_rng(7, "user", 0)
    for v_star in every_vector(params):
        ids = participating_ids(params, v_star[params.d:])
        perms = array("I", [w for _ in ids for w in rng.sample(range(1, size + 1), size)])
        trace = plan_trace(scheme, params, v_star)
        # a draw column of ones: every place het2 divides by is nonzero
        plan, queries = trace.project(params, perms, array("I", [1]) * trace.size)
        assert sorted(queries) == sorted(trace.groups)
        for server, qt in queries.items():
            assert len(qt.groups) == len(trace.groups[server])
            for g, qg in zip(trace.groups[server], qt.groups):
                for (msg, logical), (wmsg, wire) in zip(g.rows, qg.descriptor.rows):
                    assert wmsg == msg
                    assert wire == perms[ids.index(msg) * size + logical - 1]
        desired = ids.index(message_index(v_star, params))
        assert [start for start, _ in plan.decoding] == [
            (perms[desired * size + logical - 1] - 1) * plan.sub_len
            for logical in trace.decoding]


@contract
def test_a_length_or_d_the_scheme_cannot_split_is_refused(scheme, params):
    eng, rng = engine(scheme), derive_rng(0, "user", 0)
    size = eng.subpackets(params.d)
    with pytest.raises(DivisibilityError, match=f"into {size} sub-packets") as exc:
        eng.build((1,) * params.n_attrs, replace(params, length=params.length + 1), rng)
    assert exc.value.minimal_length == size
    if scheme in BELOW_BOUND:
        d = BELOW_BOUND[scheme]
        with pytest.raises(ConfigError, match=f"{scheme} needs D >= {d + 1}"):
            eng.build((1,) * (d + 1), SystemParams(n_attrs=d + 1, d=d, k=2, length=6), rng)


@pytest.mark.parametrize("q", (2, 5))
@contract
def test_every_vector_is_retrieved_from_one_build(scheme, params, q):
    # one build per retrieval, its zeros redrawn on the user's side: what
    # is sent is that build, which is the per-call oracle's, and decodes
    params = replace(params, q=q)
    store = random_store(params, q)
    pads = closed_forms(scheme, params)["consumed_symbols"]
    redrawn = 0
    for seed, v_star in enumerate(every_vector(params)):
        plan, queries = engine(scheme).build(v_star, params, derive_rng(seed, "user", 0))
        frames = {server: encode_query(query) for server, query in queries.items()}
        assert (frames, plan.decoding, plan.redraws) == per_call_plan(
            scheme, params, v_star, derive_rng(seed, "user", 0))
        message, transcript, metrics = run_protocol(scheme, params, v_star, store, seed)
        assert message == store[message_index(v_star, params)]
        assert [(r.receiver, r.digest) for r in transcript.records if r.kind == "query"] == [
            (actor_name(server, params), payload_digest(frames[server])) for server in sorted(frames)]
        assert (metrics["attempts"], metrics["retries"]) == (1, plan.redraws)
        assert metrics["randomness_consumed_symbols"] == pads
        if scheme != "het2":  # het1 and dapac never divide
            assert {c for _, terms in plan.decoding for *_, c in terms} == {1, -1}
        redrawn += plan.redraws
    assert (redrawn > 0) == (scheme == "het2")


GUARDED = ("randomness.py", "harness.py", "access.py")


@pytest.mark.parametrize("name", GUARDED)
def test_no_scheme_tag_literals(name):
    """A scheme's facts live in its engine; these modules serve every
    scheme alike, so a tag literal in them is a scheme branch growing back."""
    source = Path(hetdapac.__file__).with_name(name).read_text()
    tags = [node.value for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Constant) and node.value in ENGINES]
    assert tags == []
