"""Server answer path, past what the answer walk states: malformed query
frames, answer frames and verification payloads; label tables built once
at install against a per-query oracle; the view memo and the bounds of
its remembered id columns; a store short of a granted message; the two
answer kernels and their choice against a per-symbol loop oracle; and
honest traffic that never reaches the refusal walk. How a server answers
or refuses a malformed query is the walk's campaign, in
test_answer_walk.py."""

from __future__ import annotations

import itertools
import json
from array import array
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache, partial
from types import MappingProxyType

import pytest

from hetdapac import audit
from hetdapac.access import (
    SystemParams,
    accessible_messages,
    message_index,
    ordered_complement,
    vector_of_index,
)
from hetdapac.errors import ConfigError
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
    # a well-formed value in any encoding but strict UTF-8
    *[pytest.param(1, "attribute-commit", json.dumps({"value": 1}).encode(encoding),
                   id=f"value-1-in-{encoding}")
      for encoding in ("utf-8-sig", "utf-16", "utf-16-le", "utf-32-le")],
])
def test_malformed_verification_is_a_config_error(server, kind, payload):
    actor = ServerActor(server, P322)
    with pytest.raises(ConfigError):
        actor.handle(kind, payload if type(payload) is bytes else json.dumps(payload).encode())


def test_descriptor_columns_must_have_equal_lengths():
    # unequal columns would encode a frame that decodes to other rows
    with pytest.raises(ConfigError, match="2 message ids but 1 sub-packet indices"):
        MessageGroupDescriptor(array("I", [1, 3]), array("I", [1]))


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
# servers whose honest queries hold at least three groups of at least
# three rows: het1's central one, and both kinds of het2 server
INDEX_POINTS = [point for point in REMEMBERED_POINTS
                if point[0] == "het2" or point[3] == point[1].central and point[0] == "het1"]


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
    # a cold view looks each column up once
    assert len(lookups) == len(counted.columns) == len(ctx.view.columns) == len(honest.groups)
    assert counted.columns.keys() == ctx.view.columns.keys()
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
    # a message the query reads, gone or emptied, and the lowest granted
    # one; a query of its own fault, an index in its last group, is
    # refused for that fault first
    msg = honest.groups[0].descriptor.ids[0]
    bad_index = params.length // ctx.pool.chunk_len + 1
    bad = with_indices(honest, {(len(honest.groups) - 1, 0): bad_index})
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
            with pytest.raises(ConfigError, match=f"^sub-packet index {bad_index} out of range$"):
                answer_query(made, bad)


def test_a_context_refuses_a_start_no_32_bit_word_holds():
    # a server answers from symbols [start, start + L), each below 2^32
    ctx, query, _ = kernel_case(65537, 2, 1, rows=3)
    last = 2 ** 32 - ctx.pool.params.length
    assert replace(ctx, start=last).start == last
    for start in (-1, last + 1, 2 ** 64, True, 1.0, "0", None):
        with pytest.raises(ConfigError, match=rf"^a server answers from a symbol in \[0, {last}\]"):
            replace(ctx, start=start)


@pytest.mark.parametrize("length", [PACK_MIN_SYMBOLS - 1, PACK_MIN_SYMBOLS])
def test_a_row_read_past_the_end_of_its_message_is_refused_by_either_kernel(length):
    ctx, query, _ = kernel_case(65537, length, 1, rows=3)
    first = min(ctx.store)
    store = shortened(ctx.store, first, length - 1)
    with pytest.raises(ConfigError, match=rf"^message {first} holds {length - 1} symbols; "
                                          rf"server 1 answers from symbols \[0, {2 * length}\)$"):
        answer_query(replace(ctx, store=store), query)


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

@lru_cache(maxsize=None)
def kernel_params(q: int, length: int) -> SystemParams:
    """het1's params at D = 2 for sub-packets `length` long over F_q, made
    once: checking a q near 2^32 prime costs milliseconds."""
    return SystemParams(n_attrs=3, d=2, k=3, q=q, length=2 * length)


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
    params = kernel_params(q, length)
    store = dict(enumerate(uniform_arrays(rng, q, start + 2 * length, rows), start=1))
    labels = [("nk", 1, k) for k in range(1, pads + 1)]
    pool = RandomnessPool("het1", params, dict(zip(labels, uniform_arrays(rng, q, length, pads))))
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
    # one row under one pad, which the lane width counts as a term:
    # (q - 1)^2 + (q - 1) = 0 mod q
    assert (scheme_base._packed_share(vector[:1], arrays[:1], starts[:1], pads[:1], q, length)
            == array("I", [0]) * length)
    params = kernel_params(q, length)
    zero = RandomnessPool("het1", params, {("nk", 1, 1): (0,) * length})
    assert (scheme_base._packed_share(vector, arrays, starts, [zero.chunk(("nk", 1, 1))], q,
                                      length)
            == loop_share(vector, segments, [0] * length, q))


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


# ------------------------------------------------- honest traffic

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
