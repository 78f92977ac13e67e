"""Access structure: indexing, accessible sets, match sets, and the split
of all_pairs(D) into het2's cycle (defined in schemes/het2.py) and rest.

Attribute values are written as 1-based indices. The (3, 2, 2) and
(4, 3, 2) fixtures below use the mnemonic a=1, b=2 for attribute 1,
u=1, v=2 for attribute 3 of the 4-attribute system, and x=1, y=2 for
the public attribute, so e.g. "a2y" is (1, 2, 2).
"""

from __future__ import annotations

import itertools

import pytest

from hetdapac import access
from hetdapac.access import (
    SystemParams,
    accessible_messages,
    all_pairs,
    match_set,
    message_index,
    ordered_complement,
    pair_set,
    participating_ids,
    vector_of_index,
)
from hetdapac.errors import ConfigError
from hetdapac.harness import random_store, run_protocol
from hetdapac.schemes import het2

P322 = SystemParams(n_attrs=3, d=2, k=2, q=65537, length=2)
P432 = SystemParams(n_attrs=4, d=3, k=2, q=65537, length=6)


def ids(params, *vectors):
    return tuple(sorted(message_index(v, params) for v in vectors))


def test_params_validation():
    with pytest.raises(ConfigError):
        SystemParams(n_attrs=2, d=3, k=2)
    with pytest.raises(ConfigError):
        SystemParams(n_attrs=3, d=0, k=2)
    with pytest.raises(ConfigError):
        SystemParams(n_attrs=3, d=2, k=1)
    with pytest.raises(ConfigError):
        SystemParams(n_attrs=3, d=2, k=2, q=15)
    with pytest.raises(ConfigError):
        SystemParams(n_attrs=3, d=2, k=2, length=0)


@pytest.mark.parametrize("bad", ["1", 1.0, True])
def test_non_int_attribute_values_are_refused(bad):
    # the same rule as a verification payload's: an int, not a bool
    v_star = (bad, 1, 1)
    with pytest.raises(ConfigError, match="outside alphabet"):
        message_index(v_star, P322)
    with pytest.raises(ConfigError, match="outside alphabet"):
        run_protocol("het1", P322, v_star, random_store(P322, 0), 3)


@pytest.mark.parametrize("q", [-3, 0, 1, 2 ** 32, 4294967311, 2 ** 61 - 1])
def test_modulus_outside_a_32_bit_word_is_refused(q):
    # 4294967311 and 2^61 - 1 are prime; the bound refuses them before
    # any primality test runs
    with pytest.raises(ConfigError, match=r"\[2, 2\^32\)"):
        SystemParams(n_attrs=3, d=2, k=2, q=q)


def test_message_index_first_and_order():
    assert message_index((1, 1, 1), P322) == 0
    # last vector has the largest id
    assert message_index((2, 2, 2), P322) == 7
    # lexicographic: incrementing a later attribute moves the id less
    assert message_index((1, 1, 2), P322) < message_index((1, 2, 1), P322)


@pytest.mark.parametrize("params", [P322, P432, SystemParams(n_attrs=5, d=4, k=3)])
def test_index_roundtrip_all(params):
    seen = set()
    for v in itertools.product(range(1, params.k + 1), repeat=params.n_attrs):
        idx = message_index(v, params)
        assert 0 <= idx < params.message_count
        assert vector_of_index(idx, params) == v
        seen.add(idx)
    assert len(seen) == params.message_count


def test_accessible_sets_322():
    # v* = a2y: server 1 serves {a1y, a2y}, server 2 {a2y, b2y},
    # central all four messages with public part y
    v_star = (1, 2, 2)
    assert accessible_messages(1, v_star, P322) == ids(P322, (1, 1, 2), (1, 2, 2))
    assert accessible_messages(2, v_star, P322) == ids(P322, (1, 2, 2), (2, 2, 2))
    assert accessible_messages(3, v_star, P322) == ids(
        P322, (1, 1, 2), (1, 2, 2), (2, 1, 2), (2, 2, 2))


def test_accessible_set_sizes_and_containment():
    for params in (P322, P432, SystemParams(n_attrs=4, d=2, k=3)):
        v_star = tuple(1 for _ in range(params.n_attrs))
        central = set(accessible_messages(params.central, v_star, params))
        assert len(central) == params.k ** params.d
        for n in range(1, params.d + 1):
            own = set(accessible_messages(n, v_star, params))
            assert len(own) == params.k ** (params.d - 1)
            assert own <= central
        # every dedicated pair overlaps in exactly K^(D-2) messages
        for n in range(1, params.d + 1):
            for m in range(n + 1, params.d + 1):
                a = set(accessible_messages(n, v_star, params))
                b = set(accessible_messages(m, v_star, params))
                assert len(a & b) == params.k ** (params.d - 2)


def test_replication_pattern_33_standalone():
    # standalone 3-attribute system, v* = a2y: the desired message is held by
    # all 3 servers; a2x, a1y, b2y by 2; a1x, b2x, b1y by 1; b1x by none
    params = SystemParams(n_attrs=3, d=3, k=2, length=3)
    v_star = (1, 2, 2)
    counts = {}
    for v in itertools.product((1, 2), repeat=3):
        held = sum(
            1 for n in (1, 2, 3)
            if message_index(v, params) in accessible_messages(n, v_star, params))
        counts[v] = held
    assert counts[(1, 2, 2)] == 3
    assert sorted(counts[v] for v in [(1, 2, 1), (1, 1, 2), (2, 2, 2)]) == [2, 2, 2]
    assert sorted(counts[v] for v in [(1, 1, 1), (2, 2, 1), (2, 1, 2)]) == [1, 1, 1]
    assert counts[(2, 1, 1)] == 0


def test_match_sets_432():
    # v* = a2uy. Match set of attribute 2 at value 2 and of attribute 3 at u.
    v_star = (1, 2, 1, 2)
    assert match_set(2, 2, (2,), P432) == ids(
        P432, (1, 2, 1, 2), (2, 2, 1, 2), (1, 2, 2, 2), (2, 2, 2, 2))
    assert match_set(3, 1, (2,), P432) == ids(
        P432, (1, 1, 1, 2), (2, 1, 1, 2), (1, 2, 1, 2), (2, 2, 1, 2))
    # accessible set of a dedicated server is its own match set
    assert accessible_messages(2, v_star, P432) == match_set(2, 2, (2,), P432)


def test_pair_sets_432():
    # public part y; attribute 1 at a and attribute 3 at v
    assert pair_set(1, 3, 1, 2, (2,), P432) == ids(P432, (1, 1, 2, 2), (1, 2, 2, 2))
    # attribute 2 at 2 and attribute 3 at u
    assert pair_set(2, 3, 2, 1, (2,), P432) == ids(P432, (1, 2, 1, 2), (2, 2, 1, 2))


def test_pair_set_symmetry_exhaustive():
    # D = 3, K = 2: swap of constraints never changes the set
    params = SystemParams(n_attrs=3, d=3, k=2, length=3)
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            if n == m:
                continue
            for k in (1, 2):
                for k2 in (1, 2):
                    assert pair_set(n, m, k, k2, (), params) == \
                        pair_set(m, n, k2, k, (), params)
                    assert len(pair_set(n, m, k, k2, (), params)) == 2


def built_ids(params, public, fixed):
    """The participating ids with attribute n at fixed[n], built afresh
    without the memo: the construction the memoized sets must equal."""
    ids = [0]
    for pos in range(1, params.n_attrs + 1):
        stride = params.k ** (params.n_attrs - pos)
        if pos > params.d:
            values = (public[pos - params.d - 1],)
        elif pos in fixed:
            values = (fixed[pos],)
        else:
            values = range(1, params.k + 1)
        ids = [i + (x - 1) * stride for i in ids for x in values]
    return ids


MEMO_SHAPES = [(3, 2, 2), (4, 3, 2), (3, 3, 2), (4, 2, 3), (5, 4, 3), (6, 3, 2), (7, 6, 4)]


@pytest.mark.parametrize("n_attrs, d, k", MEMO_SHAPES)
def test_memoized_sets_equal_a_fresh_construction(n_attrs, d, k):
    params = SystemParams(n_attrs=n_attrs, d=d, k=k)
    values = range(1, k + 1)
    for public in itertools.product(values, repeat=n_attrs - d):
        assert participating_ids(params, public) == tuple(built_ids(params, public, {}))
        for value in values:
            v_star = (value,) * d + public
            assert accessible_messages(params.central, v_star, params) == \
                tuple(built_ids(params, public, {}))
            for n in range(1, d + 1):
                own = tuple(built_ids(params, public, {n: value}))
                assert accessible_messages(n, v_star, params) == own
                assert match_set(n, value, public, params) == own
                for m in range(1, d + 1):
                    if m == n:
                        continue
                    for value2 in values:
                        assert pair_set(n, m, value, value2, public, params) == \
                            tuple(built_ids(params, public, {n: value, m: value2}))


def test_memo_is_keyed_without_field_or_length():
    # two deployments that differ only in q and L share every set
    access._participating_ids.cache_clear()
    wide = SystemParams(n_attrs=7, d=6, k=4, q=65537, length=6)
    other = SystemParams(n_attrs=7, d=6, k=4, q=3, length=60)
    first = match_set(2, 3, (3,), wide)
    assert access._participating_ids.cache_info()[:2] == (0, 1)  # hits, misses
    assert match_set(2, 3, (3,), other) is first
    assert pair_set(1, 2, 4, 3, (3,), other) == pair_set(2, 1, 3, 4, (3,), wide)
    assert access._participating_ids.cache_info()[:2] == (2, 2)
    assert participating_ids(wide, (3,)) is participating_ids(other, [3])
    assert access._participating_ids.cache_info()[:2] == (3, 3)


def test_sets_are_tuples():
    v_star = (1, 2, 1, 2)
    for result in (participating_ids(P432, (2,)), accessible_messages(1, v_star, P432),
                   accessible_messages(P432.central, v_star, P432),
                   match_set(2, 1, (2,), P432), pair_set(1, 3, 2, 1, (2,), P432)):
        assert type(result) is tuple and all(type(x) is int for x in result)


def test_set_helpers_keep_their_checks():
    with pytest.raises(ConfigError, match="public part"):
        participating_ids(P432, (1, 2))
    with pytest.raises(ConfigError):
        match_set(4, 1, (2,), P432)
    with pytest.raises(ConfigError):
        pair_set(1, 2, 3, 1, (2,), P432)
    with pytest.raises(ConfigError, match="public part"):
        match_set(1, 1, (1, 2), P432)
    with pytest.raises(ConfigError):
        accessible_messages(5, (1, 2, 1, 2), P432)


@pytest.mark.parametrize("call, message", [
    (lambda: message_index((1, 2), P322), "attribute vector must have 3 entries, got 2"),
    (lambda: vector_of_index(99, P322), "message id 99 out of range [0, 8)"),
    (lambda: match_set(1, 3, (1,), P322), "value index 3 out of range [1, 2]"),
    (lambda: pair_set(1, 3, 1, 1, (1,), P322), "attribute position 3 out of range [1, 2]"),
], ids=["message-index-length", "vector-of-index", "match-set-value", "pair-set-position"])
def test_indexing_and_set_helpers_refuse_out_of_range(call, message):
    with pytest.raises(ConfigError) as exc:
        call()
    assert str(exc.value) == message


def test_pair_set_rejects_equal_positions():
    with pytest.raises(ConfigError):
        pair_set(1, 1, 1, 2, (2,), P322)


def test_ordered_complement():
    assert ordered_complement(2, 4) == (1, 3, 4)
    assert ordered_complement(1, 3) == (2, 3)
    with pytest.raises(ConfigError):
        ordered_complement(5, 4)


def rest_pairs(d):
    return tuple(p for p in all_pairs(d) if p not in het2.cycle_pairs(d))


def oriented(d):
    """het2's cycle oriented n -> n mod D + 1, sorted."""
    return tuple(sorted((n, n % d + 1) for n in range(1, d + 1)))


def test_partition_d3():
    assert all_pairs(3) == ((1, 2), (1, 3), (2, 3))
    assert het2.cycle_pairs(3) == ((1, 2), (1, 3), (2, 3))
    assert rest_pairs(3) == ()
    assert oriented(3) == ((1, 2), (2, 3), (3, 1))


def test_partition_d4_and_d5():
    assert het2.cycle_pairs(4) == ((1, 2), (1, 4), (2, 3), (3, 4))
    assert rest_pairs(4) == ((1, 3), (2, 4))
    assert len(rest_pairs(5)) == 5 * 2 // 2


def walked_orientation(cycle, d):
    """The orientation the partition had when a cycle design could be
    supplied: each connected cycle walked once from its least server,
    edges taken head to tail in adjacency order."""
    adjacency = {n: [] for n in range(1, d + 1)}
    for a, b in cycle:
        adjacency[a].append(b)
        adjacency[b].append(a)
    oriented = []
    visited_edges = set()
    for start in range(1, d + 1):
        if all((min(start, b), max(start, b)) in visited_edges for b in adjacency[start]):
            continue
        cur = start
        while True:
            nxt = next(b for b in adjacency[cur]
                       if (min(cur, b), max(cur, b)) not in visited_edges)
            oriented.append((cur, nxt))
            visited_edges.add((min(cur, nxt), max(cur, nxt)))
            cur = nxt
            if cur == start:
                break
    return tuple(sorted(oriented))


@pytest.mark.parametrize("d", range(3, 9))
def test_fixed_partition_equals_the_walked_cycle(d):
    cycle = het2.cycle_pairs(d)
    assert cycle == tuple(sorted([(n, n + 1) for n in range(1, d)] + [(1, d)]))
    assert oriented(d) == walked_orientation(cycle, d)
    # every server lies in exactly two cycle pairs
    degree = {n: sum(n in p for p in cycle) for n in range(1, d + 1)}
    assert set(degree.values()) == {2}
    # n -> n mod D + 1 covers sources and targets once each
    assert sorted(a for a, _ in oriented(d)) == list(range(1, d + 1))
    assert sorted(b for _, b in oriented(d)) == list(range(1, d + 1))
    assert {(min(p), max(p)) for p in oriented(d)} == set(cycle)
    assert set(cycle) | set(rest_pairs(d)) == set(all_pairs(d))


def test_partition_needs_three_servers():
    with pytest.raises(ConfigError, match="D >= 3"):
        het2.subpackets(2)


def test_all_pairs_count():
    for d in (2, 3, 4, 5):
        assert len(all_pairs(d)) == d * (d - 1) // 2
