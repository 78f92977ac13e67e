"""A server's answer, defined by a walk over the query, and a seeded
campaign of malformed queries that holds the answer path to it.

The walk is the whole contract of `answer_query` in about 35 lines. Per
group, in query order: the vector length, the candidate set, the pad
labels, then each row in order, a message outside the server's view an
`AccessRefusal` and an index outside [1, S] a `ConfigError`; then the
share, by a per-symbol loop. After the last group, a repeated pad label or
(message, wire index) row refuses the whole query. The campaign mutates
honest queries with a fixed seed and count, and every mutated query must
give the walk's (exception class, message), or its (shares, labels), on a
cold view, a warm one, and a warm one installed with another store or
pool, in a pure run and from a mix segment's start. After each answer the
view must remember no more than the walk allows (`remembered`). A query
checked once must be answered as the walk answers it on the view it was
checked on, and as the walk answers the plain query on an equal copy of
that view, on another v*'s view and on another server.
"""

from __future__ import annotations

from array import array
from dataclasses import replace

import pytest
from test_answers import INDEX_POINTS, REMEMBERED_POINTS

from hetdapac.access import SystemParams, accessible_messages, participating_ids
from hetdapac.errors import AccessRefusal, ConfigError
from hetdapac.field import derive_rng, uniform_arrays
from hetdapac.randomness import RandomnessPool, allocate
from hetdapac.schemes import base as scheme_base
from hetdapac.schemes.base import MEMO_ROWS, Memo, View, answer_query
from hetdapac.wire import MessageGroupDescriptor, QueryGroup, QueryTuple


def walk(server, granted, table, store, pool, start, query):
    """The answer to `query` of a server that may serve the ids `granted`
    under label `table`, from `store` and `pool` at symbol `start`:
    (payloads, labels) per group, or the refusal raised."""
    if table is None:
        raise ConfigError(f"server {server} answers no queries of scheme {pool.scheme}")
    if query.server != server:
        raise ConfigError(f"query for server {query.server} sent to {server}")
    q, n = pool.params.q, pool.chunk_len
    subpackets = pool.params.length // n
    payloads, named = [], []
    for (ids, indices), vector in query.groups:
        if len(vector) != len(ids):
            raise ConfigError("vector length does not match group rows")
        labels = table.get(frozenset(ids))
        if labels is None:
            raise ConfigError(f"group does not match any candidate set on server {server}")
        total = [0] * n
        for label in labels:
            if label not in pool.chunks:
                raise ConfigError(f"unknown chunk label {label!r}")
            total = [t + x for t, x in zip(total, pool.chunks[label])]
        for msg, widx in zip(ids, indices):
            if msg not in granted:
                raise AccessRefusal(f"server {server} asked for inaccessible message {msg}")
            if not 1 <= widx <= subpackets:
                raise ConfigError(f"sub-packet index {widx} out of range")
        for coeff, msg, widx in zip(vector, ids, indices):
            at = start + (widx - 1) * n
            total = [t + coeff * x for t, x in zip(total, store[msg][at:at + n])]
        payloads.append(array("I", [t % q for t in total]))
        named.append(labels)
    every_label = [label for labels in named for label in labels]
    rows = [row for (ids, indices), _ in query.groups for row in zip(ids, indices)]
    if len(set(every_label)) != len(every_label) or len(set(rows)) != len(rows):
        raise ConfigError(f"query reuses a pad label or a row on server {server}")
    return payloads, named


def remembered(view):
    """What a view may remember after any query, refused or not: at most
    one id column per table entry, each of distinct ids whose set the
    table names and the view grants, with that entry's own labels."""
    granted, table = view
    assert len(view.columns) <= len(table)
    for column, labels in view.columns.items():
        ids = array("I", column)
        key = frozenset(ids)
        assert len(key) == len(ids) and key <= granted and labels is table.get(key), ids


def outcome(answer, *args):
    """What `answer(*args)` gives: ("answer", payloads, labels) or
    (exception class, message)."""
    try:
        payloads, named = answer(*args)
    except (AccessRefusal, ConfigError) as refusal:
        return type(refusal), str(refusal)
    return "answer", payloads, named


def served(ctx, query):
    """`answer_query`'s shares as (payloads, labels), each share checked
    to carry its server and group index."""
    shares, named = answer_query(ctx, query)
    assert [(s.server, s.group_index) for s in shares] == [
        (ctx.server, gi) for gi in range(len(shares))]
    return [s.payload for s in shares], named


# ------------------------------------------------------------ mutations

def rows_of(query):
    """The query's groups as lists of (id, wire index, coefficient) rows."""
    return [list(zip(ids, indices, vector)) for (ids, indices), vector in query.groups]


def query_of(server, groups, vectors=None):
    """The query of (id, index, coefficient) row lists; `vectors` replaces
    a group's coefficients where it names one."""
    vectors = vectors or {}
    return QueryTuple(server, tuple(
        QueryGroup(MessageGroupDescriptor(array("I", [m for m, _, _ in rows]),
                                          array("I", [i for _, i, _ in rows])),
                   vectors.get(gi, array("I", [c for _, _, c in rows])))
        for gi, rows in enumerate(groups)))


class Campaign:
    """Seeded mutations of one server's honest query. Each `mutate` call
    edits the row lists in place, or records a vector change or a pad
    label the pool is to lack."""

    def __init__(self, rng, point, table, subpackets: int):
        scheme, params, v_star, server = point
        self.rng, self.table, self.subpackets = rng, table, subpackets
        self.participating = participating_ids(params, v_star[params.d:])
        self.granted = frozenset(accessible_messages(server, v_star, params))
        self.outside = sorted(set(self.participating) - self.granted)
        self.count = params.message_count

    def mutate(self, groups, vectors, lacking):
        rng = self.rng
        kinds = ["swap rows", "swap across", "repeat row", "drop row", "move row",
                 "swap groups", "repeat group", "drop group", "move group", "index",
                 "foreign id", "inaccessible id", "another entry", "vector", "lacks label"]
        kind = rng.choice(kinds)
        filled = [gi for gi, rows in enumerate(groups) if rows]
        if not filled:
            return
        a, b = rng.choice(filled), rng.randrange(len(groups))
        ra = rng.randrange(len(groups[a]))
        rb = rng.randrange(len(groups[b]) + 1)
        if kind == "swap rows":
            r2 = rng.randrange(len(groups[a]))
            groups[a][ra], groups[a][r2] = groups[a][r2], groups[a][ra]
        elif kind == "swap across" and rb < len(groups[b]):
            groups[a][ra], groups[b][rb] = groups[b][rb], groups[a][ra]
        elif kind == "repeat row":
            groups[b].insert(rb, groups[a][ra])
        elif kind == "drop row":
            del groups[a][ra]
        elif kind == "move row":
            groups[b].insert(rb, groups[a].pop(ra))
        elif kind == "swap groups":
            groups[a], groups[b] = groups[b], groups[a]
        elif kind == "repeat group":
            groups.insert(rng.randrange(len(groups) + 1), list(groups[a]))
        elif kind == "drop group":
            del groups[a]
        elif kind == "move group":
            groups.insert(rng.randrange(len(groups)), groups.pop(a))
        elif kind == "index":
            word = rng.choice([0, self.subpackets + 1, 2 ** 31, 2 ** 32 - 1])
            m, _, c = groups[a][ra]
            groups[a][ra] = (m, word, c)
        elif kind == "foreign id":
            foreign = rng.choice([rng.randrange(self.count), 2 ** 32 - 1])
            if foreign not in self.participating:
                _, i, c = groups[a][ra]
                groups[a][ra] = (foreign, i, c)
        elif kind == "inaccessible id" and self.outside:
            _, i, c = groups[a][ra]
            groups[a][ra] = (rng.choice(self.outside), i, c)
        elif kind == "another entry":
            key = rng.choice(sorted(map(sorted, self.table)))
            indices = [*range(1, self.subpackets + 1), 0, self.subpackets + 1]
            groups[a] = [(m, rng.choice(indices), rng.randrange(1 << 32))
                         for m in rng.sample(key, len(key))]
        elif kind == "vector":
            coefficients = [c for _, _, c in groups[a]]
            if rng.random() < 0.5:
                coefficients.append(rng.randrange(1 << 32))
            else:
                coefficients.pop()
            vectors[a] = array("I", coefficients)
        elif kind == "lacks label":
            labels = self.table.get(frozenset(m for m, _, _ in groups[a]))
            if labels:
                lacking.add(rng.choice(labels))


def mutated(campaign, honest):
    """One to three seeded mutations of `honest`: (query, labels the pool
    lacks)."""
    groups, vectors, lacking = rows_of(honest), {}, set()
    for _ in range(campaign.rng.randint(1, 3)):
        vectors = {}  # a vector change stands only as the last change
        campaign.mutate(groups, vectors, lacking)
    return query_of(honest.server, groups, vectors), lacking


def without(pool, lacking) -> RandomnessPool:
    """`pool` less the chunks of the labels in `lacking`."""
    return pool if not lacking else replace(pool, chunks={
        label: chunk for label, chunk in pool.chunks.items() if label not in lacking})


# ------------------------------------------------------------ the campaign

# mutated queries per (point, start): a few seconds of the whole campaign
MUTATIONS = 200
# a pure run answers from symbol 0, a mix segment from further in
STARTS = (0, 5)
# K^N = 2^32: with every public value at its last, the participating ids
# reach 2^32 - 1, and dapac server 1's all lie at or above 2^31
TOP = SystemParams(n_attrs=16, d=2, k=4, q=65537, length=2)
TOP_V = (4,) * 16
# the points; het1's dedicated server, whose table names match sets
# outside its view, so that a group can pass the table and meet an
# inaccessible row; at the top of the id range, dapac's server 1 at
# D = 2, whose table names one message per entry, so that its groups hold
# one row each, and het1's central server; and het1's central server at
# L = 32S, whose sub-packets of 32 symbols the packed kernel answers, so
# that each group's offsets are its indices times the sub-packet length
CAMPAIGN_POINTS = INDEX_POINTS + [point for point in REMEMBERED_POINTS
                                  if point[0] == "het1" and point[3] == 1] + [
    ("dapac", TOP, TOP_V, 1), ("het1", TOP, TOP_V, TOP.central),
    ("het1", SystemParams(n_attrs=4, d=3, k=2, q=65537, length=96), (1, 2, 1, 2), 4)]
POINT_IDS = [f"{scheme}-server{server}" for scheme, _, _, server in CAMPAIGN_POINTS[:-3]] + [
    "dapac-top-server1", "het1-top-server3", "het1-L96-server4"]
EVERY_OUTCOME = {"answer", "vector length", "candidate set", "chunk label",
                 "inaccessible", "out of range", "reuses"}


def outcome_kind(got) -> str:
    return "answer" if got[0] == "answer" else next(
        kind for kind in EVERY_OUTCOME if kind in got[1])


def setting(point):
    """What a campaign at `point` answers from: (public part, own value,
    two stores of the participating messages of v* and of `neighbour_v_star`,
    so that every view of the campaign is served, long enough for every
    start, two pools, the server's honest query)."""
    scheme, params, v_star, server = point
    public = tuple(v_star[params.d:])
    own = None if server == params.central else v_star[server - 1]
    ids = sorted({*participating_ids(params, public),
                  *participating_ids(params, neighbour_v_star(point)[params.d:])})
    stores = [dict(zip(ids, uniform_arrays(derive_rng("walk store", seed), params.q,
                                           max(STARTS) + params.length, len(ids))))
              for seed in (0, 1)]
    pools = [allocate(scheme, params, public, seed) for seed in (0, 1)]
    _, queries = scheme_base.build_plan(scheme, v_star, params, derive_rng(0, "user", 0))
    return public, own, stores, pools, queries[server]


def queries(campaign, honest):
    """The empty query, then MUTATIONS - 1 mutated ones: (query, labels
    the pool lacks)."""
    yield QueryTuple(honest.server, ()), set()
    for _ in range(MUTATIONS - 1):
        yield mutated(campaign, honest)


def reachable(campaign) -> set:
    """Every outcome a campaign must meet: a group meets an inaccessible
    row only past a table entry outside the view."""
    return EVERY_OUTCOME - (set() if any(key - campaign.granted for key in campaign.table)
                            else {"inaccessible"})


@pytest.mark.parametrize("start", STARTS)
@pytest.mark.parametrize("point", CAMPAIGN_POINTS, ids=POINT_IDS)
def test_mutated_queries_are_answered_as_the_walk_answers_them(point, start, monkeypatch):
    scheme, params, _, server = point
    public, own, stores, pools, honest = setting(point)

    def install(store, pool):
        return scheme_base.server_context(server, public, own, store, pool, start)

    def cold(store, pool):
        with monkeypatch.context() as patch:  # a view no context has answered from
            patch.setattr(scheme_base, "MEMO", Memo(MEMO_ROWS))
            return install(store, pool)

    warm = install(stores[0], pools[0])
    table = warm.view.table
    answer_query(warm, honest)
    campaign = Campaign(derive_rng("answer-walk", scheme, server, start), point, table,
                        params.length // warm.pool.chunk_len)
    installed = [warm, install(stores[1], pools[0]), install(stores[0], pools[1])]
    seen = set()
    for query, lacking in queries(campaign, honest):
        contexts = [cold(stores[0], without(pools[0], lacking)),
                    *(replace(ctx, pool=without(ctx.pool, lacking)) if lacking else ctx
                      for ctx in installed)]
        for ctx in contexts:
            store, pool = ctx.store, ctx.pool
            want = outcome(walk, server, campaign.granted, table, store, pool, start, query)
            assert outcome(served, ctx, query) == want, query
            remembered(ctx.view)
        seen.add(outcome_kind(want))
    assert seen == reachable(campaign)


def neighbour_v_star(point) -> tuple:
    """`point`'s v* with one value moved: the server's own value on a
    dedicated server, the first public value on the central one."""
    _, params, v_star, server = point
    other = list(v_star)
    at = params.d if server == params.central else server - 1
    other[at] = other[at] % params.k + 1
    return tuple(other)


def another_view(point):
    """`point`'s server's view of its `neighbour_v_star`."""
    scheme, params, _, server = point
    other = neighbour_v_star(point)
    own = None if server == params.central else other[server - 1]
    return scheme_base.MEMO.view(scheme, params, server, other[params.d:], own)


def checked_once(ctx, query):
    """("checked", `query` checked on `ctx`), or the (exception class,
    message) of the check's refusal."""
    try:
        return "checked", scheme_base.check_query(ctx, query)
    except (AccessRefusal, ConfigError) as refusal:
        return type(refusal), str(refusal)


def answered(checks, checked, server, view, store, pool, start, query, again):
    """The walk's outcome for the plain `query` from `server` on `view`,
    once the checked query, answered there, is found to give it, checked
    again or not as `again` says; `checks` lists every check made."""
    made = len(checks)
    want = outcome(walk, server, *view, store, pool, start, query)
    ctx = scheme_base.ServerContext(server, store, pool, view, start)
    assert outcome(served, ctx, checked) == want, (server, query)
    assert len(checks) - made == again
    return want


@pytest.mark.parametrize("point", CAMPAIGN_POINTS, ids=POINT_IDS)
def test_a_query_checked_once_is_answered_as_the_walk_answers_it(point, monkeypatch):
    # each mutated query is checked once, on a view no context has
    # answered from, at symbol 0. That view, warm now, answers it with the
    # install's store, another store, another pool and a pool of another
    # q, from symbol 0 and from symbol 5; the check is made again only
    # for the other q or the other start. From the install's store and
    # pool at symbol 0, an equal copy of the view, the view of another v*,
    # a view with no table and the view on another server answer it too,
    # each checking it again
    scheme, params, _, server = point
    public, own, stores, pools, honest = setting(point)
    with monkeypatch.context() as patch:
        patch.setattr(scheme_base, "MEMO", Memo(MEMO_ROWS))
        table = scheme_base.server_context(server, public, own, stores[0], pools[0]).view.table
    equal = scheme_base.server_context(server, public, own, stores[0], pools[0]).view
    other_q = allocate(scheme, replace(params, q=65521), public, 1)
    campaign = Campaign(derive_rng("checked-walk", scheme, server), point, table,
                        params.length // pools[0].chunk_len)
    neighbour, no_table = another_view(point), View(campaign.granted, None)
    checks = []
    check = scheme_base.check_query

    def counted(ctx, query):
        checks.append(ctx)
        return check(ctx, query)

    monkeypatch.setattr(scheme_base, "check_query", counted)
    seen = set()
    for query, lacking in queries(campaign, honest):
        with monkeypatch.context() as patch:  # a view no context has answered from
            patch.setattr(scheme_base, "MEMO", Memo(MEMO_ROWS))
            cold = scheme_base.server_context(server, public, own, stores[0],
                                              without(pools[0], lacking))
        checked = checked_once(cold, query)
        if checked[0] != "checked":  # the check's refusal is the walk's, from any start
            for start in STARTS:
                assert checked == outcome(walk, server, *cold.view, stores[0],
                                          without(pools[0], lacking), start, query), query
            seen.add(outcome_kind(checked))
            continue
        for start in STARTS:
            for store, pool in [(stores[0], pools[0]), (stores[1], pools[0]),
                                (stores[0], pools[1]), (stores[0], other_q)]:
                want = answered(checks, checked[1], server, cold.view, store,
                                without(pool, lacking), start, query,
                                again=start != 0 or pool.params != params)
        for where, view in [(server, equal), (server, neighbour), (server, no_table),
                            (server + 1, cold.view)]:
            answered(checks, checked[1], where, view, stores[0], without(pools[0], lacking),
                     0, query, again=True)
        for view in (cold.view, equal, neighbour):
            remembered(view)
        seen.add(outcome_kind(want))
    assert seen == reachable(campaign)
