"""Server answer path: malformed query frames, answer frames and
verification payloads, repeated groups and rows, the first bad row
deciding the error, label tables built once at install against a
per-query oracle, and the two answer kernels and their choice against a
per-symbol loop oracle."""

from __future__ import annotations

import itertools
import json
from array import array
from dataclasses import replace
from fractions import Fraction
from functools import partial
from types import MappingProxyType

import pytest

from hetdapac import audit
from hetdapac.access import (
    SystemParams,
    accessible_messages,
    message_index,
    ordered_complement,
    participating_ids,
    vector_of_index,
)
from hetdapac.errors import AccessRefusal, ConfigError
from hetdapac.field import derive_rng, uniform_arrays
from hetdapac.harness import ServerActor, random_store, run_protocol
from hetdapac.mixer import plan_mix, run_time_shared
from hetdapac.randomness import RandomnessPool, allocate, canonical_pair_label
from hetdapac.schemes import base as scheme_base
from hetdapac.schemes import dapac, het1, het2, memo_bindings
from hetdapac.schemes.base import MEMO, PACK_MIN_SYMBOLS, Memo, ServerContext, View, answer_query
from hetdapac.wire import (
    MessageGroupDescriptor,
    QueryGroup,
    QueryTuple,
    decode_answers,
    encode_commit_value,
    encode_public,
    encode_query,
    frame_symbols,
)

P322 = SystemParams(n_attrs=3, d=2, k=2, q=65537, length=2)


def unpooled_actor(server, params, v_star):
    """A verified actor, before any pool is installed."""
    actor = ServerActor(server, params)
    public = list(v_star[params.d:])
    if actor.is_central:
        actor.handle("attribute-commit", encode_public(public))
    else:
        actor.handle("attribute-commit", encode_commit_value(server, v_star[server - 1]))
        if params.has_central:
            actor.handle("attribute-relay", encode_public(public))
    return actor


def verified_actor(server, scheme, params, v_star, seed=0):
    actor = unpooled_actor(server, params, v_star)
    actor.install_pool(allocate(scheme, params, v_star[params.d:], seed),
                       random_store(params, seed))
    return actor


def descriptor(rows) -> MessageGroupDescriptor:
    """The descriptor of (message id, wire index) rows: its two columns."""
    return MessageGroupDescriptor(array("I", [m for m, _ in rows]),
                                  array("I", [i for _, i in rows]))


def query_frame(server, *groups):
    """The frame of a query to `server` with (rows, vector) groups."""
    return encode_query(QueryTuple(server, tuple(
        QueryGroup(descriptor(rows), tuple(vector)) for rows, vector in groups)))


def frame(case):
    """A list of words and raw `bytes` as the bytes of a frame; any other
    case is sent as it is."""
    if type(case) is not list:
        return case
    return b"".join(w if type(w) is bytes else w.to_bytes(4, "little") for w in case)


GOOD_GROUP = ([[1, 1], [3, 1]], [1, 1])
# the frame of GOOD_GROUP to server 1: server, group count, row count,
# message ids, indices, vector
GOOD = [1, 1, 2, 1, 3, 1, 1, 1, 1]
BIG = 2 ** 32 - 1


@pytest.mark.parametrize("payload", [
    [],                                             # no server
    [1],                                            # no group count
    GOOD[:-2],                                      # no vector
    GOOD[:2],                                       # no row counts
    [2, *GOOD[1:]],                                 # a query for server 2
    [*GOOD[:-1], b"\x01"],                          # a vector entry not a word
    [*GOOD[:5], 1, 0, 1, 1],                        # sub-packet index 0
    [*GOOD[:5], 1, 3, 1, 1],                        # index past the 2 sub-packets
    [*GOOD, 2],                                     # a word past the last group
    [1, 1, 3, *GOOD[3:]],                           # more rows counted than sent
    [*GOOD, b"\x00"],                               # a byte past the last word
    [1, BIG, *GOOD[2:]],                            # a group count past the frame
    # the dict format, which is no frame
    {"server": 1, "groups": [{"rows": [[1, 1], [3, 1]], "vector": [1, 1]}]},
    bytearray(frame(GOOD)),                         # a frame is bytes, no other buffer
    [1, 1, BIG, *GOOD[3:]],                         # a row count past the frame
    [*GOOD[:3], 1, 9, *GOOD[5:]],                   # rows {1, 9}: no candidate set
    [1, 2, 2, 2, *GOOD[3:]],                        # a second group counted, not sent
    [1, 1, 0],                                      # a group of no rows
])
def test_malformed_query_is_a_config_error(payload):
    actor = verified_actor(1, "het1", P322, (1, 2, 2))
    with pytest.raises(ConfigError):
        actor.handle("query", frame(payload))


@pytest.mark.parametrize("server, kind, payload", [
    (1, "attribute-commit", {}),                    # no value
    (1, "attribute-commit", {"value": "x"}),
    (1, "attribute-commit", {"value": True}),       # a bool is not a value
    (1, "attribute-commit", {"value": 2.0}),
    (1, "attribute-commit", {"value": 3}),          # outside [1, K]
    (1, "attribute-commit", {"value": 0}),
    (1, "attribute-commit", [2]),
    (3, "attribute-commit", {}),                    # central: no public part
    (3, "attribute-commit", {"public": 5}),
    (3, "attribute-commit", {"public": []}),        # N - D = 1 value
    (3, "attribute-commit", {"public": [1, 2]}),
    (3, "attribute-commit", {"public": [3]}),
    (3, "attribute-commit", {"public": [True]}),
    (3, "attribute-commit", {"public": "1"}),
    (1, "attribute-relay", {}),
    (1, "attribute-relay", {"public": 5}),
    (1, "attribute-relay", {"public": [0]}),
    (1, "attribute-relay", None),
])
def test_malformed_verification_is_a_config_error(server, kind, payload):
    actor = ServerActor(server, P322)
    with pytest.raises(ConfigError):
        actor.handle(kind, json.dumps(payload).encode())


def test_repeated_group_with_moved_vector_is_refused():
    # a malicious client asks the central server for one of its groups a
    # second time with the vector moved by e_1: the two shares would
    # differ by a raw sub-packet, so the server must refuse the query
    v_star = (1, 2, 2)
    actor = verified_actor(P322.central, "het1", P322, v_star)
    _, queries = het1.build(v_star, P322, derive_rng(0, "user", 0))
    honest = queries[P322.central]
    first = honest.groups[0]
    moved = tuple((x + (i == 0)) % P322.q for i, x in enumerate(first.vector))
    replay = QueryTuple(honest.server,
                        honest.groups + (QueryGroup(first.descriptor, moved),))
    assert actor.handle("query", encode_query(honest))[0] == "answer"
    with pytest.raises(ConfigError, match="reuses"):
        actor.handle("query", encode_query(replay))


def test_repeated_row_within_a_group_is_refused():
    actor = verified_actor(1, "het1", P322, (1, 2, 2))
    group = ([[1, 1], [3, 1], [1, 1]], [1, 1, 1])
    with pytest.raises(ConfigError, match="reuses"):
        actor.handle("query", query_frame(1, group))


def test_repeated_row_across_two_groups_is_refused():
    # het1's central table names {a1y, a2y} and {a1y, b1y}: a1y at wire
    # index 1 in both groups repeats a row though neither group does
    a1y, a2y, b1y = (message_index(v, P322) for v in ((1, 1, 2), (1, 2, 2), (2, 1, 2)))
    actor = verified_actor(P322.central, "het1", P322, (1, 2, 2))
    first = ([[a1y, 1], [a2y, 1]], [1, 1])
    with pytest.raises(ConfigError, match="reuses"):
        actor.handle("query", query_frame(P322.central, first, ([[a1y, 1], [b1y, 1]], [1, 1])))
    kind, _ = actor.handle("query", query_frame(P322.central, first,
                                                ([[a1y, 2], [b1y, 1]], [1, 1])))
    assert kind == "answer"


# K^N = 2^32, so an id may be any 32-bit word. With every public
# attribute at its last value the participating ids reach 2^32 - 1, and
# dedicated server 1's (v_1 = 4) are all at or above 2^31
TOP = SystemParams(n_attrs=16, d=2, k=4, q=65537, length=2)
TOP_V = (4,) * 16


def with_row_copied(query: QueryTuple, msg: int) -> QueryTuple:
    """`query` with msg's row in the first group that names it copied into
    another group: over msg's own row in the next group that names it,
    or else over the row of the first other group, which must have one."""
    groups = list(query.groups)
    a = next(gi for gi, g in enumerate(groups) if msg in g.descriptor.ids)
    index = groups[a].descriptor.indices[groups[a].descriptor.ids.index(msg)]
    others = [gi for gi in range(len(groups)) if gi != a]
    b = next((gi for gi in others if msg in groups[gi].descriptor.ids), others[0])
    ids, indices = (column[:] for column in groups[b].descriptor)
    at = ids.index(msg) if msg in ids else 0
    assert msg in ids or len(ids) == 1
    ids[at], indices[at] = msg, index
    groups[b] = QueryGroup(MessageGroupDescriptor(ids, indices), groups[b].vector)
    return QueryTuple(query.server, tuple(groups))


@pytest.mark.parametrize("scheme, server", [("het1", TOP.central), ("dapac", 1)])
def test_row_keys_at_the_top_of_the_id_range(scheme, server):
    public = TOP_V[TOP.d:]
    participating = participating_ids(TOP, public)
    assert max(participating) == 2 ** 32 - 1 and len(participating) == 16
    assert min(accessible_messages(1, TOP_V, TOP)) >= 2 ** 31
    store = {m: array("I", [m % TOP.q, 1]) for m in participating}  # these messages alone
    own = None if server == TOP.central else TOP_V[server - 1]
    ctx = scheme_base.server_context(server, public, own, store, allocate(scheme, TOP, public, 0))
    _, queries = {"het1": het1, "dapac": dapac}[scheme].build(TOP_V, TOP, derive_rng(0, "user", 0))
    honest = queries[server]
    rows = {row for g in honest.groups for row in g.descriptor.rows}
    if scheme == "het1":
        # rows whose ids differ in bit 31 alone, at one index, are two rows
        assert {(2 ** 31 - 1, 1), (2 ** 32 - 1, 1)} <= rows
    else:
        assert min(m for m, _ in rows) >= 2 ** 31
    shares, _ = answer_query(ctx, honest)
    assert len(shares) == len(honest.groups)
    with pytest.raises(ConfigError, match="reuses"):
        answer_query(ctx, with_row_copied(honest, 2 ** 32 - 1))


def test_descriptor_columns_must_have_equal_lengths():
    # unequal columns would encode a frame that decodes to other rows
    with pytest.raises(ConfigError, match="2 message ids but 1 sub-packet indices"):
        MessageGroupDescriptor(array("I", [1, 3]), array("I", [1]))


def test_first_bad_row_decides_the_error():
    # server 1 holds a1y and a2y; het1's table also names the match set
    # {a1y, b1y}, so a group over it passes the table and then meets an
    # inaccessible row (b1y) and, here, an index past the 2 sub-packets
    a1y, b1y = message_index((1, 1, 2), P322), message_index((2, 1, 2), P322)
    actor = verified_actor(1, "het1", P322, (1, 2, 2))

    def query(rows):
        return query_frame(1, (rows, [1, 1]))

    with pytest.raises(AccessRefusal):
        actor.handle("query", query([[b1y, 1], [a1y, 3]]))
    with pytest.raises(ConfigError, match="out of range"):
        actor.handle("query", query([[a1y, 3], [b1y, 1]]))


def test_well_formed_query_is_answered():
    actor = verified_actor(1, "het1", P322, (1, 2, 2))
    assert query_frame(1, GOOD_GROUP) == frame(GOOD)
    kind, reply = actor.handle("query", query_frame(1, GOOD_GROUP))
    assert kind == "answer" and frame_symbols("answer", reply) == 1
    assert [s.group_index for s in decode_answers(reply)] == [0]


# the frame of a one-share answer from server 1: server, share count,
# symbols per share, the symbol 1
ONE = [1, 1, 1, 1]


@pytest.mark.parametrize("payload", [
    [],                                             # no server
    [1],                                            # no share count
    ONE[:2],                                        # no share length
    ONE[:3],                                        # no symbols
    [1, 2, 1, 1],                                   # a share counted, not sent
    [1, 1, 2, 1],                                   # a symbol counted, not sent
    [*ONE[:3], b"\x01"],                            # a symbol not a word
    [1, BIG, 0],                                    # empty shares past the frame
    [1, 1, BIG, 1],                                 # a share length past the frame
    [*ONE, 2],                                      # a word past the last share
    "answer",
    # the dict format with an int list, which is no frame
    {"server": 1, "shares": [{"group": 0, "payload": [1]}]},
    # byte counts that are not whole 4-byte words
    [*ONE[:3], b"\x01\x00\x00"],
    [*ONE, b"\x00"],
    # a frame is bytes, not another buffer
    bytearray(frame(ONE)),
])
def test_malformed_answers_are_a_config_error(payload):
    with pytest.raises(ConfigError):
        decode_answers(frame(payload))


def counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_het2_central_label_table_is_built_once_at_install(monkeypatch):
    params = SystemParams(n_attrs=4, d=3, k=2, q=65537, length=6)
    v_star = (1, 2, 2, 1)
    _, queries = het2.build(v_star, params, derive_rng(0, "user", 0))
    actor = unpooled_actor(params.central, params, v_star)
    calls = counting(monkeypatch, het2, "match_set")
    actor.install_pool(allocate("het2", params, v_star[params.d:], 0),
                       random_store(params, 0))
    assert len(calls) == params.k * params.d
    actor.handle("query", encode_query(queries[params.central]))
    assert len(calls) == params.k * params.d


def test_dapac_label_table_is_built_once_at_install(monkeypatch):
    params = SystemParams(n_attrs=3, d=3, k=2, q=65537, length=3)
    v_star = (2, 1, 2)
    _, queries = dapac.build(v_star, params, derive_rng(0, "user", 0))
    actor = unpooled_actor(1, params, v_star)
    calls = counting(monkeypatch, dapac, "pair_set")
    actor.install_pool(allocate("dapac", params, (), 0), random_store(params, 0))
    assert len(calls) == params.k * (params.d - 1)
    actor.handle("query", encode_query(queries[1]))
    assert len(calls) == params.k * (params.d - 1)


def test_dapac_central_server_refuses_every_query():
    # the central server verifies the public part under dapac, installs
    # the pool without error, and answers nothing, not even no groups
    params = SystemParams(n_attrs=4, d=3, k=2, q=65537, length=3)
    v_star = (2, 1, 2, 1)
    actor = verified_actor(params.central, "dapac", params, v_star)
    _, queries = dapac.build(v_star, params, derive_rng(0, "user", 0))
    real = QueryTuple(params.central, queries[1].groups[:1])
    for query in (real, QueryTuple(params.central, ())):
        with pytest.raises(ConfigError):
            actor.handle("query", encode_query(query))


def ids_where(params, public, fixed) -> frozenset:
    """The messages with public part `public` and attribute n at fixed[n],
    found by scanning every message's attribute vector."""
    return frozenset(i for i in range(params.message_count)
                     for v in [vector_of_index(i, params)]
                     if v[params.d:] == public
                     and all(v[n - 1] == x for n, x in fixed.items()))


def per_query_table(scheme, server, params, public, own):
    """The label table each answer built for itself before tables were
    built at install, its labels as tuples; None where the scheme asks
    the server nothing."""
    central = server == params.central
    if scheme == "dapac" and central:
        return None
    table = {}
    if scheme == "het1":
        for n in range(1, params.d + 1):
            for k in range(1, params.k + 1):
                table[ids_where(params, public, {n: k})] = (("nk", n, k),)
    elif central:
        for n in range(1, params.d + 1):
            m0 = n % params.d + 1  # n's outgoing cycle partner
            for k in range(1, params.k + 1):
                table[ids_where(params, public, {n: k})] = tuple(
                    canonical_pair_label(n, m0, k, k2) for k2 in range(1, params.k + 1))
    else:
        for m in ordered_complement(server, params.d):
            for k in range(1, params.k + 1):
                key = ids_where(params, public, {server: own, m: k})
                table[key] = (canonical_pair_label(server, m, own, k),)
    return table


@pytest.mark.parametrize("scheme, n_attrs, d, k", [
    (scheme, *shape) for shape in [(3, 2, 2), (4, 3, 2), (3, 3, 2), (5, 4, 3)]
    for scheme in ("het1", "het2", "dapac") if shape[1] >= 3 or scheme != "het2"])
def test_install_time_tables_equal_the_per_query_oracle(scheme, n_attrs, d, k):
    length = {"het1": d, "het2": d * (d + 1) // 2, "dapac": d * (d - 1) // 2}[scheme]
    params = SystemParams(n_attrs=n_attrs, d=d, k=k, length=length)
    store = random_store(params, 0)
    for public in itertools.product(range(1, k + 1), repeat=n_attrs - d):
        pool = allocate(scheme, params, public, 0)
        for server in params.servers():
            views = [None] if server == params.central else range(1, k + 1)
            for own in views:
                ctx = scheme_base.server_context(server, public, own, store, pool)
                assert ctx.view.table == per_query_table(scheme, server, params, public, own)


# ------------------------------------------------------- the view memo

VIEW_POINTS = [
    ("het1", SystemParams(n_attrs=4, d=3, k=2, q=65537, length=3), (1, 2, 1, 2)),
    ("het2", SystemParams(n_attrs=5, d=4, k=2, q=65537, length=10), (1, 2, 1, 2, 2)),
    ("dapac", SystemParams(n_attrs=3, d=3, k=2, q=65537, length=3), (1, 2, 2)),
]


def installed(scheme, params, v_star, seed=0):
    """Every server's context for one verified v*, on the pool and store
    of `seed`: ({server: context}, store)."""
    public = tuple(v_star[params.d:])
    pool, store = allocate(scheme, params, public, seed), random_store(params, seed)
    return {server: scheme_base.server_context(
                server, public, None if server == params.central else v_star[server - 1],
                store, pool)
            for server in params.servers()}, store


def tables_of(scheme, params, v_star) -> dict:
    return {server: ctx.view.table and dict(ctx.view.table)
            for server, ctx in installed(scheme, params, v_star)[0].items()}


@pytest.mark.parametrize("scheme, params, v_star", VIEW_POINTS)
def test_a_warm_install_reuses_the_table_and_slices_the_store_afresh(scheme, params, v_star):
    # a warm install reuses the whole view, and holds the caller's store
    # as it is, copying no message
    cold, _ = installed(scheme, params, v_star, seed=0)
    warm, store = installed(scheme, params, v_star, seed=1)
    for server, ctx in warm.items():
        assert ctx.view is cold[server].view and ctx.view.table is cold[server].view.table
        assert ctx.view.granted == frozenset(accessible_messages(server, v_star, params))
        assert ctx.store is store


@pytest.mark.parametrize("scheme, params, v_star", VIEW_POINTS)
def test_a_memoized_table_refuses_every_write(scheme, params, v_star):
    contexts, _ = installed(scheme, params, v_star)
    ctx = contexts[1]
    key, labels = next(iter(ctx.view.table.items()))
    with pytest.raises(TypeError):
        ctx.view.table[key] = ()
    with pytest.raises(TypeError):
        del ctx.view.table[key]
    with pytest.raises(AttributeError):
        ctx.view.table[key].append(labels[0])
    # the answer names the table's own tuples, uncopied
    _, queries = scheme_base.build_plan(scheme, v_star, params, derive_rng(0, "user", 0))
    _, named = answer_query(ctx, queries[1])
    assert all(any(got is entry for entry in ctx.view.table.values()) for got in named)
    assert installed(scheme, params, v_star)[0][1].view.table == ctx.view.table


VIEW_BINDINGS = [(module, name) for module in (het1, het2, dapac)
                 for name in ("match_set", "pair_set", "label_table") if hasattr(module, name)]
# het2's dedicated tables are dapac's: its own pair_set is called by its trace only
UNVIEWED = {(het2, "pair_set")}


@pytest.mark.parametrize("module, name", VIEW_BINDINGS,
                         ids=[f"{m.SCHEME}.{n}" for m, n in VIEW_BINDINGS])
def test_a_rebound_binding_sees_every_call_a_cold_install_makes(module, name, monkeypatch):
    # a warm view installed again under a patched set helper or label
    # table calls it as often as a cold install does, with the same
    # tables: the memo serves no view that another binding made
    original = getattr(module, name)
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    with monkeypatch.context() as patch:
        patch.setattr(module, name, counting)
        watched = memo_bindings()
    total = 0
    for scheme, params, v_star in VIEW_POINTS:
        tables = tables_of(scheme, params, v_star)  # the views are warm
        counts = []
        for cold in (False, True):
            if cold:
                MEMO.clear()
            with monkeypatch.context() as patch:
                patch.setattr(module, name, counting)
                calls.clear()
                assert tables_of(scheme, params, v_star) == tables
                counts.append(len(calls))
        assert counts[0] == counts[1], scheme
        total += counts[0]
    assert watched != memo_bindings()
    assert (total > 0) == ((module, name) not in UNVIEWED)


def test_the_view_memo_never_holds_more_rows_than_its_bound():
    # a view weighs its ids and its table's keys' ids: het1's table keys
    # six sets of four, so 4 + 24 on a dedicated server, 8 + 24 on the
    # central one
    scheme, params, _ = VIEW_POINTS[0]
    views = [(server, public, None if server == params.central else own)
             for public in ((1,), (2,)) for own in (1, 2) for server in params.servers()]
    memo = Memo(max_rows=2 * 28 + 32)
    for server, public, own in views + views[::-1]:
        ids, table = memo.view(scheme, params, server, public, own)
        assert len(ids) == (8 if own is None else 4)
        assert type(table) is MappingProxyType
        assert memo.rows == sum(r for _, r in memo.entries.values()) <= memo.max_rows
    # least recently used first: the last three views, all dedicated
    assert list(memo.entries) == [("view", scheme, 4, 3, 2, server, (1,), 1)
                                  for server in (3, 2, 1)]
    assert memo.rows == 3 * 28
    # a view heavier than the bound is used once and not kept
    small = Memo(max_rows=28)
    assert len(small.view(scheme, params, params.central, (1,), None)[0]) == 8
    assert (len(small), small.rows) == (0, 0)
    # one memo holds the traces and the views of a run
    run_protocol(scheme, params, (1, 2, 1, 2), random_store(params, 0), 0)
    kinds = {key[0] for key in MEMO.entries}
    assert kinds == {"trace", "view"} and MEMO.rows <= MEMO.max_rows


# ------------------------------------------------- remembered id columns

# every server with a table at the view points
REMEMBERED_POINTS = [(scheme, params, v_star, server) for scheme, params, v_star in VIEW_POINTS
                     for server in (1, params.central)
                     if scheme != "dapac" or server != params.central]


def warm(scheme, params, v_star, server):
    """`server`'s context on a fresh view after it has answered its honest
    query, every group's id column remembered: (context, that query)."""
    MEMO.clear()
    ctx = installed(scheme, params, v_star)[0][server]
    _, queries = scheme_base.build_plan(scheme, v_star, params, derive_rng(0, "user", 0))
    honest = queries[server]
    answer_query(ctx, honest)
    assert all(g.descriptor.ids.tobytes() in ctx.view.columns for g in honest.groups)
    return ctx, honest


def cold(ctx):
    """`ctx` on a fresh copy of its view, which has remembered nothing:
    make one for each query, as an answer fills the view it reads."""
    fresh = replace(ctx, view=View(*ctx.view))
    assert not fresh.view.columns
    return fresh


def counted_sets(monkeypatch) -> list:
    """The message sets `answer_query` builds from now on, one for each id
    column it matches against its table."""
    built = []

    def counting(msgs):
        built.append(msgs)
        return frozenset(msgs)

    monkeypatch.setattr(scheme_base, "frozenset", counting, raising=False)
    return built


def reordered(group: QueryGroup, order) -> QueryGroup:
    """`group` with its rows, and their coefficients, in `order`."""
    (ids, indices), vector = group
    return QueryGroup(MessageGroupDescriptor(array("I", [ids[r] for r in order]),
                                             array("I", [indices[r] for r in order])),
                      [vector[r] for r in order])


@pytest.mark.parametrize("scheme, params, v_star, server", REMEMBERED_POINTS)
def test_a_remembered_column_is_refused_as_on_a_cold_view(scheme, params, v_star, server):
    # a remembered column skips its set, lookup and subset test, not the
    # index and vector checks: each refusal reads as on a view that has
    # never seen the column
    ctx, honest = warm(scheme, params, v_star, server)
    (ids, indices), vector = honest.groups[0]
    subpackets = params.length // ctx.pool.chunk_len

    def with_index(index):
        changed = indices[:]
        changed[-1] = index
        return QueryGroup(MessageGroupDescriptor(ids[:], changed), vector)

    for group, message in [
        (with_index(0), "sub-packet index 0 out of range"),
        (with_index(subpackets + 1), f"sub-packet index {subpackets + 1} out of range"),
        (QueryGroup(MessageGroupDescriptor(ids[:], indices[:]), vector[:-1]),
         "vector length does not match group rows"),
    ]:
        MEMO.clear()
        fresh = installed(scheme, params, v_star)[0][server]
        assert not fresh.view.columns
        for c in (fresh, ctx):
            with pytest.raises(ConfigError) as refused:
                answer_query(c, QueryTuple(server, (group,)))
            assert str(refused.value) == message


def test_a_column_outside_the_slice_is_refused_every_time():
    # server 1's het1 table names {a1y, b1y}, but b1y is not in its slice:
    # the column matches the table, fails the subset test and is never
    # remembered, so a second send is refused as the first was
    a1y, b1y = message_index((1, 1, 2), P322), message_index((2, 1, 2), P322)
    MEMO.clear()
    ctx = installed("het1", P322, (1, 2, 2))[0][1]
    query = QueryTuple(1, (QueryGroup(descriptor([[a1y, 1], [b1y, 1]]), [1, 1]),))
    for _ in range(2):
        with pytest.raises(AccessRefusal, match=f"inaccessible message {b1y}$"):
            answer_query(ctx, query)
    assert not ctx.view.columns
    # a label the pool lacks is refused before the inaccessible row
    lacking = {key: (*labels, ("nk", 9, 9)) for key, labels in ctx.view.table.items()}
    with pytest.raises(ConfigError, match=r"unknown chunk label \('nk', 9, 9\)"):
        answer_query(replace(ctx, view=View(ctx.view.granted, lacking)), query)


@pytest.mark.parametrize("scheme, params, v_star, server", REMEMBERED_POINTS)
def test_another_table_or_store_never_reads_the_remembered_columns(scheme, params, v_star,
                                                                   server):
    ctx, honest = warm(scheme, params, v_star, server)
    columns = ctx.view.columns
    before = dict(columns)
    lacking = MappingProxyType({key: (*labels, ("nk", 9, 9))
                                for key, labels in ctx.view.table.items()})
    other = View(ctx.view.granted, lacking)
    with pytest.raises(ConfigError, match=r"unknown chunk label \('nk', 9, 9\)"):
        answer_query(replace(ctx, view=other), honest)
    msg = honest.groups[0].descriptor.ids[0]
    store = {m: symbols for m, symbols in ctx.store.items() if m != msg}
    # a store that lacks a granted message is refused as an install refuses it
    with pytest.raises(ConfigError, match=f"^store holds no message {msg} for server {server}$"):
        answer_query(replace(ctx, store=store), honest)
    assert ctx.view.columns is columns and columns == before
    # another table is another view, which remembers only what it matched
    # against its own table
    assert other.columns and all(labels is lacking[frozenset(array("I", column))]
                                 for column, labels in other.columns.items())


def view_args(params, v_star, server):
    """(public part, own value) of `server`'s view of v*."""
    return tuple(v_star[params.d:]), None if server == params.central else v_star[server - 1]


@pytest.mark.parametrize("scheme, params, v_star, server", REMEMBERED_POINTS)
def test_a_warm_view_with_another_store_or_pool_answers_as_a_fresh_install(
        scheme, params, v_star, server, monkeypatch):
    # a context on a warm view, whatever its store and pool, reads the
    # view's remembered columns: no message set built, no table lookup
    ctx, honest = warm(scheme, params, v_star, server)
    public, own = view_args(params, v_star, server)
    lookups = []

    class CountingTable(dict):
        def get(self, key, default=None):
            lookups.append(key)
            return dict.get(self, key, default)

    counted = View(ctx.view.granted, CountingTable(ctx.view.table))
    answer_query(replace(ctx, view=counted), honest)
    assert lookups and counted.columns.keys() == ctx.view.columns.keys()
    other_store, other_pool = random_store(params, 1), allocate(scheme, params, public, 1)
    for store, pool in [(other_store, ctx.pool), (ctx.store, other_pool),
                        (other_store, other_pool)]:
        MEMO.clear()
        fresh = answer_query(scheme_base.server_context(server, public, own, store, pool),
                             honest)
        built = counted_sets(monkeypatch)
        lookups.clear()
        for view in (ctx.view, counted):
            assert answer_query(ServerContext(server, store, pool, view), honest) == fresh
        assert built == [] and lookups == []


def shortened(store, msg, symbols):
    """`store` with `msg` cut to its first `symbols` symbols, or left out
    when `symbols` is None."""
    return {m: s if m != msg else s[:symbols] for m, s in store.items()
            if m != msg or symbols is not None}


@pytest.mark.parametrize("scheme, params, v_star, server", REMEMBERED_POINTS)
def test_a_store_short_of_a_granted_message_is_refused_by_name(scheme, params, v_star, server):
    # at install, and by the answer of a context made from the view, or of
    # one whose store changed since: the install's ConfigError, naming the
    # lowest message missing, else the lowest too short, and the server,
    # never a KeyError or an IndexError
    ctx, honest = warm(scheme, params, v_star, server)
    public, own = view_args(params, v_star, server)
    whole, n = ctx.store, params.length
    first, last = min(ctx.view.granted), max(ctx.view.granted)
    missing = f"^store holds no message {first} for server {server}$"
    short = (rf"^message {first} holds {n - 1} symbols; server {server} answers from "
             rf"symbols \[0, {n}\)$")
    for store, refusal in [
        (shortened(shortened(whole, last, None), first, None), missing),
        (shortened(shortened(whole, last, n - 1), first, None), missing),
        (shortened(shortened(whole, last, n - 1), first, n - 1), short),
    ]:
        with pytest.raises(ConfigError, match=refusal) as refused:
            scheme_base.server_context(server, public, own, store, ctx.pool)
        assert type(refused.value) is ConfigError
    # a mix segment's range past the stored symbols
    with pytest.raises(ConfigError, match=rf"^message {first} holds {n} symbols; server "
                                          rf"{server} answers from symbols \[1, {n + 1}\)$"):
        scheme_base.server_context(server, public, own, whole, ctx.pool, 1)
    # a message the query reads, gone or emptied, and the lowest granted one
    msg = honest.groups[0].descriptor.ids[0]
    for symbols, refusal in [
        (None, f"^store holds no message {first} for server {server}$"),
        (0, rf"^message {first} holds 0 symbols; server {server} answers from "
            rf"symbols \[0, {n}\)$"),
    ]:
        store = shortened(shortened(whole, msg, symbols), first, symbols)
        changed = dict(whole)
        after = ServerContext(server, changed, ctx.pool, ctx.view)
        changed.clear()
        changed.update(store)
        for made in (ServerContext(server, store, ctx.pool, ctx.view),
                     replace(ctx, store=store), after):
            with pytest.raises(ConfigError, match=refusal) as refused:
                answer_query(made, honest)
            assert type(refused.value) is ConfigError


@pytest.mark.parametrize("length", [PACK_MIN_SYMBOLS - 1, PACK_MIN_SYMBOLS])
def test_a_row_read_past_the_end_of_its_message_is_refused_by_either_kernel(length):
    ctx, query, _ = kernel_case(65537, length, 1, rows=3)
    first = min(ctx.store)
    store = shortened(ctx.store, first, length - 1)
    with pytest.raises(ConfigError, match=rf"^message {first} holds {length - 1} symbols; "
                                          rf"server 1 answers from symbols \[0, {2 * length}\)$"):
        answer_query(replace(ctx, store=store), query)


@pytest.mark.parametrize("scheme, params, v_star, server", REMEMBERED_POINTS)
def test_rows_in_another_order_are_matched_through_the_table(scheme, params, v_star, server,
                                                             monkeypatch):
    ctx, honest = warm(scheme, params, v_star, server)
    query = QueryTuple(server, tuple(reordered(g, range(len(g.vector) - 1, -1, -1))
                                     for g in honest.groups))
    built = counted_sets(monkeypatch)
    shares, named = answer_query(ctx, query)
    columns = {g.descriptor.ids.tobytes() for g in query.groups}
    assert len(built) == len(columns) and columns <= ctx.view.columns.keys()
    q, n = params.q, ctx.pool.chunk_len
    for share, labels, group in zip(shares, named, query.groups):
        assert labels == ctx.view.table[frozenset(group.descriptor.ids)]
        segments = [ctx.store[m][ctx.start + (i - 1) * n:ctx.start + i * n]
                    for m, i in group.descriptor.rows]
        assert share.payload == loop_share(group.vector, segments,
                                           pad_sum(ctx.pool, labels, q), q)


@pytest.mark.parametrize("scheme, params, v_star, server", [
    point for point in REMEMBERED_POINTS if point[0] != "dapac"])
def test_a_view_remembers_at_most_one_column_per_table_entry(scheme, params, v_star, server):
    ctx, honest = warm(scheme, params, v_star, server)
    columns, bound = ctx.view.columns, len(ctx.view.table)
    group = honest.groups[0]
    orders = list(itertools.islice(itertools.permutations(range(len(group.vector))), 3 * bound))
    assert len(orders) == 3 * bound
    for order in orders:
        answer_query(ctx, QueryTuple(server, (reordered(group, order),)))
        assert len(columns) <= bound
    assert len(columns) == bound
    assert reordered(group, orders[-1]).descriptor.ids.tobytes() in columns


# the benchmark's `wide` shape and its lengths
WIDE_SHAPE = {"n_attrs": 7, "d": 6, "k": 4, "q": 65537}
WIDE_LENGTHS = {"het1": 6, "het2": 21, "dapac": 15, "mix": 60}


def test_a_second_wide_pass_evicts_nothing_from_the_memo():
    # 4096 participating messages: an evicted trace would be traced again
    # on every pass, which costs far more than any memo saves
    v_star = (3, 1, 4, 2, 2, 4, 1)
    runs = []
    for kind, length in WIDE_LENGTHS.items():
        params = SystemParams(length=length, **WIDE_SHAPE)
        store = random_store(params, 0)
        if kind == "mix":
            runs.append(partial(run_time_shared, plan_mix(params, Fraction(1, 2)), v_star, store))
        else:
            runs.append(partial(run_protocol, kind, params, v_star, store))
    MEMO.clear()
    for run in runs:
        run(0)
    held = {key: value for key, (value, _) in MEMO.entries.items()}
    assert {key[0] for key in held} == {"trace", "view"}
    for run in runs:
        run(1)
    assert MEMO.entries.keys() == held.keys()
    assert all(MEMO.entries[key][0] is value for key, value in held.items())
    assert MEMO.rows <= MEMO.max_rows
    # each remembered column is its table's key in some row order, 4
    # bytes a row of it
    for key, view in held.items():
        if key[0] == "view" and view[1] is not None:
            assert len(view.columns) <= len(view[1])
            for column in view.columns:
                ids = array("I", column)
                assert len(set(ids)) == len(ids) and frozenset(ids) in view[1]


# ------------------------------------------------------- answer kernels

def kernel_case(q: int, length: int, pads: int, rows=None, start: int = 0):
    """One group over `rows` rows (1-64 at random when None) of sub-packets
    `length` long, with `pads` pad labels, on a server that holds every
    row and answers from symbol `start` on, as a mix segment does:
    (ctx, query, table). Past 64 symbols a group has at most 8 rows,
    which keeps the loop reference fast. The vector leads with 0, q - 1,
    -1 and q + 5; the wire accepts any int, so the kernels must reduce
    coefficients themselves."""
    rng = derive_rng("kernel", q, length, pads)
    rows = rows or rng.randint(1, 64 if length <= 64 else 8)
    params = SystemParams(n_attrs=3, d=2, k=3, q=q, length=2 * length)
    store = dict(enumerate(uniform_arrays(rng, q, start + 2 * length, rows), start=1))
    labels = [("nk", 1, k) for k in range(1, pads + 1)]
    pool = RandomnessPool("het1", params, length,
                          dict(zip(labels, uniform_arrays(rng, q, length, pads))))
    vector = ((0, q - 1, -1, q + 5)
              + tuple(rng.randrange(-2 * q, 2 * q) for _ in range(rows)))[:rows]
    group = QueryGroup(descriptor([(m, rng.randint(1, 2)) for m in store]), vector)
    table = {frozenset(store): labels}
    view = View(frozenset(store), table)
    return ServerContext(1, store, pool, view, start), QueryTuple(1, (group,)), table


def pad_sum(pool, labels, q: int) -> tuple[int, ...]:
    total = [0] * pool.chunk_len
    for label in labels:
        for j, x in enumerate(pool.chunk(label)):
            total[j] = (total[j] + x) % q
    return tuple(total)


def loop_share(vector, segments, pad, q: int) -> array:
    """pad + sum_r vector[r] * segments[r] mod q, one symbol at a time,
    as the `array('I')` every kernel returns."""
    total = list(pad)
    for coeff, seg in zip(vector, segments):
        for j, s in enumerate(seg):
            total[j] = (total[j] + coeff * s) % q
    return array("I", total)


def loop_reference(ctx, query, table):
    """The share by the per-symbol loop over sliced rows: the oracle for
    every kernel. Returns the kernels' inputs too: (arrays, starts, pad
    chunks, labels, share), wire index i starting at symbol
    ctx.start + (i - 1)·length."""
    group = query.groups[0]
    q, n = ctx.pool.params.q, ctx.pool.chunk_len
    arrays = [ctx.store[m] for m, _ in group.descriptor.rows]
    starts = [ctx.start + (i - 1) * n for _, i in group.descriptor.rows]
    segments = [a[s:s + n] for a, s in zip(arrays, starts)]
    labels = table[frozenset(m for m, _ in group.descriptor.rows)]
    chunks = [ctx.pool.chunk(label) for label in labels]
    want = loop_share(group.vector, segments, pad_sum(ctx.pool, labels, q), q)
    return arrays, starts, chunks, labels, want


KERNEL_MODULI = [2, 3, 65537, 4294967291]
# the symbol a server answers from: a pure run's, and a mix segment's
# some symbols in
KERNEL_STARTS = (0, 5)


@pytest.mark.parametrize("q", KERNEL_MODULI)
@pytest.mark.parametrize("length", [PACK_MIN_SYMBOLS - 1, PACK_MIN_SYMBOLS, 20000])
@pytest.mark.parametrize("pads", [0, 1, 3])
def test_packed_kernel_equals_the_loop(q, length, pads):
    for start in KERNEL_STARTS:
        ctx, query, table = kernel_case(q, length, pads, start=start)
        arrays, starts, chunks, labels, want = loop_reference(ctx, query, table)
        got = scheme_base._packed_share(query.groups[0].vector, arrays, starts, chunks, q,
                                        length)
        assert type(got) is array and got.typecode == "I" and got == want
        shares, named = answer_query(ctx, query)
        assert [s.payload for s in shares] == [want] and named == [labels]
        assert type(shares[0].payload) is array and shares[0].payload.typecode == "I"


@pytest.mark.parametrize("rows, words", [(255, 2), (256, 3)])
def test_packed_kernel_across_the_lane_width_step(rows, words):
    # at q = 65537 a lane total reaches 2^40 at 256 terms: its Barrett
    # product then needs 66 bits, a third word per lane; the lengths leave
    # the last lane every count of words either width allows
    q = 65537
    assert scheme_base._lane_width(rows, q)[1] == words
    for length in (33, 34, 35):
        ctx, query, table = kernel_case(q, length, 0, rows)
        arrays, starts, chunks, _, want = loop_reference(ctx, query, table)
        assert (scheme_base._packed_share(query.groups[0].vector, arrays, starts, chunks, q,
                                          length) == want)
        top = [array("I", [q - 1]) * length] * rows
        assert (scheme_base._packed_share([q - 1] * rows, top, [0] * rows, (), q, length)
                == loop_share([q - 1] * rows, top, [0] * length, q))


@pytest.mark.parametrize("q", KERNEL_MODULI + [2 ** 31 - 1])
@pytest.mark.parametrize("length", [32, 33, 34, 35, 20001, 20002])
@pytest.mark.parametrize("make_pad", [array, tuple])
def test_packed_kernel_at_the_top_of_the_field(q, length, make_pad):
    # every symbol and pad at q - 1, coefficients q - 1 and their negative
    # forms; pads as the array('I') chunks of a draw or the tuples of a
    # zero pool; 8 terms take 1, 2 or 4 words a lane, and the lengths
    # leave the last lane every count of words up to 4
    top = array("I", [q - 1]) * (2 * length)
    vector = [q - 1, -1, -(q - 1), q - 1, -q - 1]
    arrays, starts = [top] * len(vector), [0, length] * 2 + [0]
    segments = [a[s:s + length] for a, s in zip(arrays, starts)]
    pad = array("I", [q - 1]) * length
    pads = [pad if make_pad is array else tuple(pad)] * 3
    got = scheme_base._packed_share(vector, arrays, starts, pads, q, length)
    assert type(got) is array
    assert got == loop_share(vector, segments, [3 * (q - 1) % q] * length, q)
    params = SystemParams(n_attrs=3, d=2, k=3, q=q, length=2 * length)
    zero = RandomnessPool("het1", params, length, {("nk", 1, 1): (0,) * length})
    assert (scheme_base._packed_share(vector, arrays, starts, [zero.chunk(("nk", 1, 1))], q,
                                      length)
            == loop_share(vector, segments, [0] * length, q))


def test_a_label_the_pool_lacks_is_refused_by_name():
    # the answer path reads the pool's chunk map by label; a label the
    # pool does not hold still raises the pool's own refusal, naming it
    ctx, query, table = kernel_case(65537, 2, 1, rows=3)
    (key, labels), = table.items()
    lacking = replace(ctx, view=View(ctx.view.granted, {key: (*labels, ("nk", 9, 9))}))
    with pytest.raises(ConfigError, match=r"unknown chunk label \('nk', 9, 9\)"):
        answer_query(lacking, query)


def test_vector_shorter_than_the_rows_is_refused():
    # a frame's row count sets its vector length, so only a direct call
    # can send a group whose vector is short
    ctx, query, _ = kernel_case(65537, 2, 1, rows=3)
    group = query.groups[0]
    short = QueryTuple(1, (QueryGroup(group.descriptor, group.vector[:-1]),))
    with pytest.raises(ConfigError, match="vector length does not match group rows"):
        answer_query(ctx, short)


@pytest.mark.parametrize("scheme, params, v_star", VIEW_POINTS)
def test_every_share_goes_through_combine(scheme, params, v_star, monkeypatch):
    # `combine` is the one seam a test patches to change every share, as
    # the secrecy tests strip the pads: the answer path reaches it once per
    # group, and decode once per sub-packet
    calls = counting(monkeypatch, scheme_base, "combine")
    plan, queries = scheme_base.build_plan(scheme, v_star, params, derive_rng(0, "user", 0))
    contexts, store = installed(scheme, params, v_star)
    answers = {}
    for server, query in queries.items():
        calls.clear()
        answers[server], _ = answer_query(contexts[server], query)
        assert len(calls) == len(query.groups) > 0
    calls.clear()
    assert scheme_base.decode(plan, answers) == store[message_index(v_star, params)]
    assert len(calls) == len(plan.decoding) == params.length // plan.sub_len


# every length the gather kernel answers at random row counts, then the
# short groups of few rows and symbols that retrievals and audits send it
GATHER_SHAPES = ([(length, None) for length in range(1, PACK_MIN_SYMBOLS)]
                 + [(length, rows) for rows in (1, 2, 4, 7, 67) for length in (1, 2, 3)])


@pytest.mark.parametrize("q", KERNEL_MODULI)
@pytest.mark.parametrize("pads", [0, 1, 3])
def test_gather_and_loop_kernels_equal_the_oracle(q, pads):
    for start, (length, rows) in itertools.product(KERNEL_STARTS, GATHER_SHAPES):
        ctx, query, table = kernel_case(q, length, pads, rows, start)
        arrays, starts, chunks, labels, want = loop_reference(ctx, query, table)
        got = scheme_base._gather_share(query.groups[0].vector, arrays, starts, chunks, q, length)
        assert type(got) is array and got.typecode == "I"
        assert got == want, (start, length, rows)
        shares, named = answer_query(ctx, query)
        assert [s.payload for s in shares] == [want] and named == [labels]


def refuse(kernel, symbols):
    def unused(*args):
        raise AssertionError(f"{kernel} ran on {symbols} symbols")
    return unused


@pytest.mark.parametrize("length, kernel", [
    (PACK_MIN_SYMBOLS - 1, "_packed_share"),
    (PACK_MIN_SYMBOLS, "_gather_share"),
])
def test_kernel_is_chosen_by_subpacket_length(monkeypatch, length, kernel):
    # the kernel named must not run; the other one answers exactly
    ctx, query, table = kernel_case(65537, length, 1)
    want = loop_reference(ctx, query, table)[-1]
    monkeypatch.setattr(scheme_base, kernel, refuse(kernel, length))
    shares, _ = answer_query(ctx, query)
    assert [s.payload for s in shares] == [want]


# ------------------------------------------------- the one-pass index check

# servers whose honest queries hold at least three groups of at least
# three rows: het1's central one, and both kinds of het2 server
INDEX_POINTS = [point for point in REMEMBERED_POINTS
                if point[0] == "het2" or point[3] == point[1].central and point[0] == "het1"]
BAD_WORDS = (0, "S+1", 2 ** 31, 2 ** 32 - 1)


def with_indices(query: QueryTuple, changes: dict) -> QueryTuple:
    """`query` with the wire index of (group, row) set to word, for each
    (group, row) -> word of `changes`."""
    groups = list(query.groups)
    for (gi, r), word in changes.items():
        (ids, indices), vector = groups[gi]
        indices = indices[:]
        indices[r] = word
        groups[gi] = QueryGroup(MessageGroupDescriptor(ids, indices), vector)
    return QueryTuple(query.server, tuple(groups))


def walked_refusal(query: QueryTuple, subpackets: int) -> str:
    """The refusal of the first index out of [1, S], walking every row of
    every group in order: the message a per-row check raises."""
    for (_, indices), _ in query.groups:
        for widx in indices:
            if not 1 <= widx <= subpackets:
                return f"sub-packet index {widx} out of range"
    raise AssertionError("no index out of range")


def ends(n: int) -> list[int]:
    """The first, a middle and the last of n places."""
    return sorted({0, n // 2, n - 1})


@pytest.mark.parametrize("scheme, params, v_star, server", INDEX_POINTS)
def test_an_index_out_of_range_is_refused_as_the_row_walk_refuses_it(scheme, params, v_star,
                                                                      server):
    # each bad word in the first, a middle and the last row of the first,
    # a middle and the last group, on a view that has remembered nothing
    # and on a warm one; a second bad word in the query's last row never
    # decides the error
    warm_ctx, honest = warm(scheme, params, v_star, server)
    subpackets = params.length // warm_ctx.pool.chunk_len
    groups = honest.groups
    assert len(groups) >= 3 and min(len(g.vector) for g in groups) >= 3
    last = (len(groups) - 1, len(groups[-1].vector) - 1)
    for word in BAD_WORDS:
        word = subpackets + 1 if word == "S+1" else word
        for gi in ends(len(groups)):
            for r in ends(len(groups[gi].vector)):
                for changes in ({(gi, r): word}, {last: 2 ** 32 - 1, (gi, r): word}):
                    query = with_indices(honest, changes)
                    want = walked_refusal(query, subpackets)
                    assert want == f"sub-packet index {word} out of range"
                    for ctx in (cold(warm_ctx), warm_ctx):
                        with pytest.raises(ConfigError) as refused:
                            answer_query(ctx, query)
                        assert str(refused.value) == want


def unmatched(ctx, query: QueryTuple) -> QueryGroup:
    """A one-row group over the first message of `query`, whose set no
    table entry names."""
    msg = query.groups[0].descriptor.ids[0]
    assert frozenset({msg}) not in ctx.view.table
    return QueryGroup(descriptor([[msg, 1]]), [1])


@pytest.mark.parametrize("scheme, params, v_star, server", INDEX_POINTS)
def test_the_first_failing_group_decides_between_index_and_match(scheme, params, v_star,
                                                                 server):
    ctx, honest = warm(scheme, params, v_star, server)
    subpackets = params.length // ctx.pool.chunk_len
    no_set = f"group does not match any candidate set on server {server}"
    bad_index = f"sub-packet index {subpackets + 1} out of range"
    bad = with_indices(honest, {(1, 0): subpackets + 1}).groups
    # group 2's index against group 3's missing candidate set
    index_first = QueryTuple(server, (*bad[:2], unmatched(ctx, honest), *bad[3:]))
    # group 1's missing candidate set against group 2's index
    match_first = QueryTuple(server, (unmatched(ctx, honest), *bad[1:]))
    for query, want in [(index_first, bad_index), (match_first, no_set)]:
        for c in (cold(ctx), ctx):
            with pytest.raises(ConfigError) as refused:
                answer_query(c, query)
            assert str(refused.value) == want


@pytest.mark.parametrize("scheme, params, v_star, server", INDEX_POINTS)
def test_a_label_the_pool_lacks_is_refused_before_an_index_in_its_group(scheme, params,
                                                                        v_star, server):
    ctx, honest = warm(scheme, params, v_star, server)
    subpackets = params.length // ctx.pool.chunk_len
    lacking = MappingProxyType({key: (*labels, ("nk", 9, 9))
                                for key, labels in ctx.view.table.items()})
    query = with_indices(honest, {(0, 1): subpackets + 1})
    with pytest.raises(ConfigError, match=r"unknown chunk label \('nk', 9, 9\)"):
        answer_query(replace(ctx, view=View(ctx.view.granted, lacking)), query)


@pytest.mark.parametrize("scheme, params, v_star, server", INDEX_POINTS)
def test_an_empty_query_is_answered_with_nothing(scheme, params, v_star, server):
    ctx, _ = warm(scheme, params, v_star, server)
    for c in (cold(ctx), ctx):
        assert answer_query(c, QueryTuple(server, ())) == ([], [])


def groups_case(length: int, start: int, groups: int = 4, rows: int = 3,
                subpackets: int = 3):
    """`groups` groups of `rows` rows each, every row a message of its own
    at a random wire index, on a server that answers sub-packets `length`
    long from symbol `start` on, one pad chunk per group: (ctx, query)."""
    q = 65537
    rng = derive_rng("groups", length, start)
    params = SystemParams(n_attrs=3, d=2, k=3, q=q, length=subpackets * length)
    store = dict(enumerate(uniform_arrays(rng, q, start + subpackets * length, groups * rows),
                           start=1))
    ids = list(store)
    labels = [("nk", 1, g) for g in range(1, groups + 1)]
    pool = RandomnessPool("het1", params, length,
                          dict(zip(labels, uniform_arrays(rng, q, length, groups))))
    table = {frozenset(ids[g * rows:(g + 1) * rows]): (labels[g],) for g in range(groups)}
    query = QueryTuple(1, tuple(
        QueryGroup(descriptor([(m, rng.randint(1, subpackets))
                               for m in ids[g * rows:(g + 1) * rows]]),
                   array("I", [rng.randrange(q) for _ in range(rows)]))
        for g in range(groups)))
    return ServerContext(1, store, pool, View(frozenset(store), table), start), query


def group_oracle(ctx, query) -> list[array]:
    """Each group's share by the per-symbol loop over sliced rows."""
    q, n = ctx.pool.params.q, ctx.pool.chunk_len
    return [loop_share(g.vector, [ctx.store[m][ctx.start + (i - 1) * n:ctx.start + i * n]
                                  for m, i in g.descriptor.rows],
                       pad_sum(ctx.pool, ctx.view.table[frozenset(g.descriptor.ids)], q), q)
            for g in query.groups]


@pytest.mark.parametrize("length", [1, 2, 5, 32])
@pytest.mark.parametrize("start", KERNEL_STARTS)
def test_each_group_reads_its_own_slice_of_the_offset_column(length, start):
    # four groups, so every group but the first reads its first-symbol
    # offsets from inside the query's one column, at a pure run's start
    # and at a mix segment's
    ctx, query = groups_case(length, start)
    shares, _ = answer_query(ctx, query)
    assert [s.payload for s in shares] == group_oracle(ctx, query)
    assert [s.group_index for s in shares] == list(range(len(query.groups)))


def test_indices_and_offsets_past_a_lane_are_scanned():
    # a hand-made context may have 2^31 sub-packets, or answer from
    # symbols past 2^32, which no 32-bit lane holds with room to spare;
    # range-backed messages stand in for stores that large
    q = 65537
    for subpackets, start in [(2 ** 31, 0), (2, 2 ** 32 - 1)]:
        params = SystemParams(n_attrs=3, d=2, k=3, q=q, length=subpackets)
        pool = RandomnessPool("het1", params, 1, {("nk", 1, 1): (5,)})
        store = {m: range(m, m + start + subpackets) for m in (1, 2)}
        view = View(frozenset(store), {frozenset(store): (("nk", 1, 1),)})
        ctx = ServerContext(1, store, pool, view, start)
        rows = [[1, subpackets], [2, 1]]
        query = QueryTuple(1, (QueryGroup(descriptor(rows), [1, 2]),))
        shares, _ = answer_query(ctx, query)
        want = (1 + start + subpackets - 1 + 2 * (2 + start) + 5) % q
        assert [list(s.payload) for s in shares] == [[want]]
        for word in (0, subpackets + 1):
            with pytest.raises(ConfigError, match=f"^sub-packet index {word} out of range$"):
                answer_query(ctx, with_indices(query, {(0, 1): word}))
        # group 0 fails, by a short vector or, on a view that does not
        # grant message 2, by its second row, and group 1 holds index 0:
        # the scan finds the index, and group 0's refusal is raised
        zero = QueryGroup(descriptor([[1, 0], [2, 1]]), [1, 2])
        ungranted = replace(ctx, view=View(frozenset({1}), view.table))
        for c, group, refusal, message in [
                (ctx, QueryGroup(descriptor(rows), [1]), ConfigError,
                 "vector length does not match group rows"),
                (ungranted, query.groups[0], AccessRefusal,
                 "server 1 asked for inaccessible message 2")]:
            with pytest.raises(refusal) as refused:
                answer_query(c, QueryTuple(1, (group, zero)))
            assert str(refused.value) == message


def test_honest_traffic_never_reaches_the_refusal_walk(monkeypatch):
    # every scheme's full run on a cold memo and then a warm one, a mix,
    # and the secrecy suite: only a query that fails a check is walked
    walks = counting(monkeypatch, scheme_base, "_refusal")
    mix_params = SystemParams(n_attrs=3, d=2, k=2, q=65537, length=4)
    points = [*VIEW_POINTS, (plan_mix(mix_params, Fraction(1, 2)), mix_params, (1, 2, 1))]
    MEMO.clear()
    for seed in (0, 1):  # cold, then warm
        for scheme, params, v_star in points:
            store = random_store(params, seed)
            message, _, _ = (run_protocol(scheme, params, v_star, store, seed)
                             if type(scheme) is str else
                             run_time_shared(scheme, v_star, store, seed))
            assert message == store[message_index(v_star, params)]
    assert audit.suite_secrecy()["pass"]
    assert walks == []
    # the walk is what names a refused query's fault
    ctx, honest = warm(*INDEX_POINTS[0])
    with pytest.raises(ConfigError):
        answer_query(ctx, with_indices(honest, {(0, 0): 0}))
    assert len(walks) == 1


# ------------------------------------------------- the checked query

def answered(ctx, query):
    """`answer_query(ctx, query)`, or the (class, message) of its refusal."""
    try:
        return answer_query(ctx, query)
    except (AccessRefusal, ConfigError) as refusal:
        return type(refusal), str(refusal)


@pytest.mark.parametrize("scheme, params, v_star, server", REMEMBERED_POINTS)
def test_a_query_checked_once_answers_from_any_store_and_pool_of_its_view(
        scheme, params, v_star, server, monkeypatch):
    # each answer of the checked query equals the plain query's answer on
    # a fresh install of the same store and pool, and none checks again
    ctx, honest = warm(scheme, params, v_star, server)
    public, own = view_args(params, v_star, server)
    checked = scheme_base.check_query(ctx, honest)
    assert isinstance(checked, scheme_base.CheckedQuery)
    assert (checked.server, checked.groups) == tuple(honest)
    other_store, other_pool = random_store(params, 1), allocate(scheme, params, public, 1)
    assert other_pool.chunks.keys() == ctx.pool.chunks.keys()
    cases = [(ctx.store, ctx.pool), (other_store, ctx.pool), (ctx.store, other_pool),
             (other_store, other_pool)]
    fresh = []
    for store, pool in cases:
        MEMO.clear()
        fresh.append(answer_query(scheme_base.server_context(server, public, own, store, pool),
                                  honest))
    assert fresh[0] != fresh[1] and fresh[0] != fresh[2]
    checks = counting(monkeypatch, scheme_base, "check_query")
    for (store, pool), want in zip(cases, fresh):
        assert answer_query(ServerContext(server, store, pool, ctx.view), checked) == want
    assert checks == []


@pytest.mark.parametrize("scheme, params, v_star, server", REMEMBERED_POINTS)
def test_a_checked_query_on_another_context_is_checked_again(scheme, params, v_star, server,
                                                            monkeypatch):
    # another view (even an equal copy), start, params or server: the
    # checked query gives exactly what the plain query gives there
    ctx, honest = warm(scheme, params, v_star, server)
    public, _ = view_args(params, v_star, server)
    checked = scheme_base.check_query(ctx, honest)
    lacking = MappingProxyType({key: (*labels, ("nk", 9, 9))
                                for key, labels in ctx.view.table.items()})
    shifted = random_store(replace(params, length=params.length + 5), 1)
    other_q = replace(params, q=65521)
    others = [
        cold(ctx),
        replace(ctx, view=View(ctx.view.granted, lacking)),
        replace(ctx, view=View(frozenset(), ctx.view.table)),
        replace(ctx, store=shifted, start=5),
        replace(ctx, pool=allocate(scheme, other_q, public, 1)),
        replace(ctx, server=server + 1),
    ]
    checks = counting(monkeypatch, scheme_base, "check_query")
    for other in others:
        want = answered(other, honest)
        checks.clear()
        assert answered(other, checked) == want
        assert len(checks) == 1
    assert answered(others[0], checked) == answer_query(ctx, checked)
    assert answered(others[1], checked)[0] is ConfigError
    assert answered(others[3], checked) != answer_query(ctx, checked)


@pytest.mark.parametrize("scheme, params, v_star, server", INDEX_POINTS)
def test_a_checked_query_refuses_a_pool_that_lacks_a_label_by_name(scheme, params, v_star,
                                                                   server):
    # the pool answered from lacks a label of the last group: that group
    # is refused, naming the label, after every earlier group's share
    ctx, honest = warm(scheme, params, v_star, server)
    checked = scheme_base.check_query(ctx, honest)
    label = ctx.view.table[frozenset(honest.groups[-1].descriptor.ids)][-1]
    pool = replace(ctx.pool, chunks={k: c for k, c in ctx.pool.chunks.items() if k != label})
    lacks = ServerContext(server, ctx.store, pool, ctx.view)
    for query in (checked, honest):
        with pytest.raises(ConfigError) as refused:
            answer_query(lacks, query)
        assert str(refused.value) == f"unknown chunk label {label!r}"


@pytest.mark.parametrize("scheme, params, v_star, server", INDEX_POINTS)
def test_a_store_refusal_comes_after_every_refusal_of_the_query(scheme, params, v_star,
                                                                server):
    # a hand-made context whose store lacks a message that group 1 reads,
    # and a bad index in group 2: the query's own refusal is raised, and
    # the store's only once the query passes its checks
    ctx, honest = warm(scheme, params, v_star, server)
    subpackets = params.length // ctx.pool.chunk_len
    msg = honest.groups[0].descriptor.ids[0]
    short = ServerContext(server, shortened(ctx.store, msg, None), ctx.pool, ctx.view)
    bad = with_indices(honest, {(1, 0): subpackets + 1})
    with pytest.raises(ConfigError, match=f"^sub-packet index {subpackets + 1} out of range$"):
        answer_query(short, bad)
    with pytest.raises(ConfigError, match=f"^store holds no message {msg} for server {server}$"):
        answer_query(short, honest)
