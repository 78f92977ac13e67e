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
pool, in a pure run and from a mix segment's start.
"""

from __future__ import annotations

from array import array
from dataclasses import replace

import pytest
from test_answers import INDEX_POINTS, REMEMBERED_POINTS

from hetdapac.access import accessible_messages, participating_ids
from hetdapac.errors import AccessRefusal, ConfigError
from hetdapac.field import derive_rng
from hetdapac.harness import random_store
from hetdapac.randomness import RandomnessPool, allocate
from hetdapac.schemes import base as scheme_base
from hetdapac.schemes.base import MEMO_ROWS, Memo, answer_query
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
    return replace(pool, chunks={label: chunk for label, chunk in pool.chunks.items()
                                 if label not in lacking})


# ------------------------------------------------------------ the campaign

# mutated queries per (point, start): a few seconds of the whole campaign
MUTATIONS = 200
# a pure run answers from symbol 0, a mix segment from further in
STARTS = (0, 5)
# the points, and het1's dedicated server, whose table names match sets
# outside its view, so that a group can pass the table and meet an
# inaccessible row
CAMPAIGN_POINTS = INDEX_POINTS + [point for point in REMEMBERED_POINTS
                                  if point[0] == "het1" and point[3] == 1]
EVERY_OUTCOME = {"answer", "vector length", "candidate set", "chunk label",
                 "inaccessible", "out of range", "reuses"}


def outcome_kind(got) -> str:
    return "answer" if got[0] == "answer" else next(
        kind for kind in EVERY_OUTCOME if kind in got[1])


@pytest.mark.parametrize("start", STARTS)
@pytest.mark.parametrize("point", CAMPAIGN_POINTS,
                         ids=[f"{p[0]}-server{p[3]}" for p in CAMPAIGN_POINTS])
def test_mutated_queries_are_answered_as_the_walk_answers_them(point, start, monkeypatch):
    scheme, params, v_star, server = point
    public = tuple(v_star[params.d:])
    own = None if server == params.central else v_star[server - 1]
    long = replace(params, length=start + params.length)
    stores = [random_store(long, seed) for seed in (0, 1)]
    pools = [allocate(scheme, params, public, seed) for seed in (0, 1)]

    def install(store, pool):
        return scheme_base.server_context(server, public, own, store, pool, start)

    def cold(store, pool):
        with monkeypatch.context() as patch:  # a view no context has answered from
            patch.setattr(scheme_base, "MEMO", Memo(MEMO_ROWS))
            return install(store, pool)

    _, queries = scheme_base.build_plan(scheme, v_star, params, derive_rng(0, "user", 0))
    honest = queries[server]
    warm = install(stores[0], pools[0])
    table = warm.view.table
    answer_query(warm, honest)
    campaign = Campaign(derive_rng("answer-walk", scheme, server, start), point, table,
                        params.length // warm.pool.chunk_len)
    seen = set()
    for _ in range(MUTATIONS):
        query, lacking = mutated(campaign, honest)
        contexts = [(cold, stores[0], pools[0]), (install, stores[0], pools[0]),
                    (install, stores[1], pools[0]), (install, stores[0], pools[1])]
        for make, store, pool in contexts:
            pool = without(pool, lacking)
            want = outcome(walk, server, campaign.granted, table, store, pool, start, query)
            assert outcome(served, make(store, pool), query) == want, query
        seen.add(outcome_kind(want))
    # a group meets an inaccessible row only past a table entry outside the view
    reachable = EVERY_OUTCOME - (set() if any(key - campaign.granted for key in table)
                                 else {"inaccessible"})
    assert seen == reachable


def checked_once(ctx, query):
    """("checked", `query` checked on `ctx`), or the (exception class,
    message) of the check's refusal."""
    try:
        return "checked", scheme_base.check_query(ctx, query)
    except (AccessRefusal, ConfigError) as refusal:
        return type(refusal), str(refusal)


@pytest.mark.parametrize("point", CAMPAIGN_POINTS,
                         ids=[f"{p[0]}-server{p[3]}" for p in CAMPAIGN_POINTS])
def test_a_query_checked_once_is_answered_as_the_walk_answers_it(point, monkeypatch):
    # each mutated query is checked once, on a view no context has
    # answered from, at symbol 0; that view, warm now, then answers it
    # with the install's store, another store and another pool, from
    # symbol 0, where the check holds, and from symbol 5, where the
    # query is checked again
    scheme, params, v_star, server = point
    public = tuple(v_star[params.d:])
    own = None if server == params.central else v_star[server - 1]
    long = replace(params, length=max(STARTS) + params.length)
    stores = [random_store(long, seed) for seed in (0, 1)]
    pools = [allocate(scheme, params, public, seed) for seed in (0, 1)]
    _, queries = scheme_base.build_plan(scheme, v_star, params, derive_rng(0, "user", 0))
    honest = queries[server]
    with monkeypatch.context() as patch:
        patch.setattr(scheme_base, "MEMO", Memo(MEMO_ROWS))
        table = scheme_base.server_context(server, public, own, stores[0], pools[0]).view.table
    campaign = Campaign(derive_rng("checked-walk", scheme, server), point, table,
                        params.length // pools[0].chunk_len)
    seen = set()
    for _ in range(MUTATIONS):
        query, lacking = mutated(campaign, honest)
        with monkeypatch.context() as patch:  # a view no context has answered from
            patch.setattr(scheme_base, "MEMO", Memo(MEMO_ROWS))
            cold = scheme_base.server_context(server, public, own, stores[0],
                                              without(pools[0], lacking))
        checked = checked_once(cold, query)
        for start in STARTS:
            for store, pool in [(stores[0], pools[0]), (stores[1], pools[0]),
                                (stores[0], pools[1])]:
                pool = without(pool, lacking)
                want = outcome(walk, server, campaign.granted, table, store, pool, start, query)
                if checked[0] != "checked":  # the check's refusal is the walk's
                    assert checked == want, query
                    continue
                ctx = scheme_base.ServerContext(server, store, pool, cold.view, start)
                assert outcome(served, ctx, checked[1]) == want, query
        seen.add(outcome_kind(want))
    reachable = EVERY_OUTCOME - (set() if any(key - campaign.granted for key in table)
                                 else {"inaccessible"})
    assert seen == reachable
