"""dapac engine: frozen walkthrough of the all-sensitive (3, 2) system.

Every attribute has its own server, so params are (n_attrs=3, d=3, k=2)
and there is no central server. For v* = (1, 2, 2) (mnemonic a2y) the
message ids are a1x=0, a1y=1, a2x=2, a2y=3, b1x=4, b1y=5, b2x=6, b2y=7;
the desired id is 3 and b1x matches nothing, so it never appears.
"""

from __future__ import annotations

import gc
import itertools

import pytest

from hetdapac.access import SystemParams, accessible_messages, message_index
from hetdapac.errors import DivisibilityError
from hetdapac.field import derive_rng
from hetdapac.harness import random_store, run_protocol
from hetdapac.schemes import dapac
from hetdapac.schemes.base import plan_trace
from hetdapac.wire import decode_query, encode_query

P332 = SystemParams(n_attrs=3, d=3, k=2, q=65537, length=3)
V = (1, 2, 2)  # a2y, id 3

SRV1 = [[(0, 1), (1, 1)], [(2, 1), (3, 1)], [(0, 2), (2, 2)], [(1, 2), (3, 2)]]
SRV2 = [[(2, 1), (3, 1)], [(6, 1), (7, 1)], [(2, 3), (6, 2)], [(3, 3), (7, 2)]]
SRV3 = [[(1, 2), (3, 2)], [(5, 1), (7, 3)], [(1, 3), (5, 2)], [(3, 3), (7, 2)]]


def traced_plan(params, v_star):
    """The symbolic plan every build of (params, v*) evaluates."""
    return plan_trace("dapac", params, v_star)


def test_no_central_participation():
    assert not P332.has_central
    plan, queries = dapac.build(V, P332, derive_rng(7, "user", 0))
    assert sorted(plan.groups) == [1, 2, 3]
    assert sorted(queries) == [1, 2, 3]


def test_frozen_group_rows():
    plan = traced_plan(P332, V)
    assert [g.rows for g in plan.groups[1]] == SRV1
    assert [g.rows for g in plan.groups[2]] == SRV2
    assert [g.rows for g in plan.groups[3]] == SRV3


def test_twin_vectors_are_lifted_owner_draws():
    plan = traced_plan(P332, V)
    vec = {(s, i): plan.groups[s][i].vector.blocks[0] for s in (1, 2, 3)
           for i in range(4)}
    # pair {1,2}: twin at server 2 copies server 1's far-value-2 group,
    # lifted at the desired row (a2y sits second in {a2x, a2y})
    assert vec[2, 0].draw == vec[1, 1].draw and vec[2, 0].offset == (0, 1)
    # pair {1,3}: desired sits second in {a1y, a2y}
    assert vec[3, 0].draw == vec[1, 3].draw and vec[3, 0].offset == (0, 1)
    # pair {2,3}: desired sits first in {a2y, b2y}
    assert vec[3, 3].draw == vec[2, 3].draw and vec[3, 3].offset == (1, 0)
    # nine draws are fresh; only the three twins reuse one
    fresh = [b for b in vec.values() if b.offset == (0, 0)]
    assert len(fresh) == 9
    assert len({b.draw for b in fresh}) == 9


def test_desired_appears_once_per_pair_with_fresh_indices():
    # one entry per pair: the higher twin's share minus the lower twin's
    plan = traced_plan(P332, V)
    assert sorted(plan.decoding) == [1, 2, 3]
    pairs = sorted((lower[0], higher[0]) for higher, lower in plan.decoding.values())
    assert pairs == [(1, 2), (1, 3), (2, 3)]
    assert all(higher[2] == 1 and lower[2] == -1
               for higher, lower in plan.decoding.values())


def test_per_server_logicals_distinct_per_message():
    plan = traced_plan(P332, V)
    for groups in plan.groups.values():
        seen: dict[int, set] = {}
        for g in groups:
            for msg, logical in g.rows:
                assert logical not in seen.setdefault(msg, set())
                seen[msg].add(logical)


def test_group_sets_cover_exactly_the_accessible_slice():
    plan = traced_plan(P332, V)
    for server in (1, 2, 3):
        covered = {m for g in plan.groups[server] for m, _ in g.rows}
        assert covered == set(accessible_messages(server, V, P332))
    # the all-mismatched message is nowhere
    assert all(4 != m for g in plan.groups[1] + plan.groups[2] + plan.groups[3]
               for m, _ in g.rows)


def test_run_metrics():
    store = random_store(P332, 2)
    msg, transcript, metrics = run_protocol("dapac", P332, V, store, seed=5)
    assert msg == store[3]
    assert metrics["download_total"] == 12
    assert metrics["download_central"] == 0
    assert metrics["download_dedicated"] == {1: 4, 2: 4, 3: 4}
    assert metrics["load_ratio"] == float("inf")
    assert metrics["rate"] == pytest.approx(1 / 4)
    assert metrics["randomness_allocated_chunks"] == 12   # K^2 per pair
    assert metrics["randomness_consumed_chunks"] == 9     # 2K-1 per pair
    assert metrics["randomness_consumed_symbols"] == 9


def test_unconsumed_chunks_are_the_doubly_mismatched_ones():
    store = random_store(P332, 2)
    _, transcript, _ = run_protocol("dapac", P332, V, store, seed=5)
    consumed = {lbl for _, lbl in transcript.consumed}
    # k_1=1, k_2=2, k_3=2: a pad goes unused iff both far values miss
    assert consumed == {
        ("pair", 1, 2, 1, 1), ("pair", 1, 2, 1, 2), ("pair", 1, 2, 2, 2),
        ("pair", 1, 3, 1, 1), ("pair", 1, 3, 1, 2), ("pair", 1, 3, 2, 2),
        ("pair", 2, 3, 2, 1), ("pair", 2, 3, 2, 2), ("pair", 2, 3, 1, 2),
    }


def test_roundtrip_all_targets_small_field():
    params = SystemParams(n_attrs=3, d=3, k=2, q=5, length=3)
    for seed, v_star in enumerate(itertools.product((1, 2), repeat=3)):
        store = random_store(params, seed + 50)
        msg, _, metrics = run_protocol("dapac", params, v_star, store, seed=seed)
        assert msg == store[message_index(v_star, params)]
        assert metrics["retries"] == 0  # decode is division-free


def test_wider_system_metrics():
    # (4, 3): C(4,2) = 6 sub-packets, K(D-1) = 9 groups per server
    params = SystemParams(n_attrs=4, d=4, k=3, q=65537, length=6)
    v_star = (2, 1, 3, 2)
    store = random_store(params, 8)
    msg, _, metrics = run_protocol("dapac", params, v_star, store, seed=1)
    assert msg == store[message_index(v_star, params)]
    assert metrics["download_total"] == 36
    assert metrics["rate"] == pytest.approx(1 / 6)  # 1/(2K)
    assert metrics["randomness_allocated_chunks"] == 54   # 6 pairs * K^2
    assert metrics["randomness_consumed_chunks"] == 30    # 6 pairs * (2K-1)


def test_length_must_split_into_pair_subpackets():
    params = SystemParams(n_attrs=4, d=4, k=2, q=65537, length=4)
    rng = derive_rng(0, "user", 0)
    with pytest.raises(DivisibilityError) as exc:
        dapac.build((1, 1, 1, 1), params, rng)
    assert exc.value.minimal_length == 6


def test_wide_build_and_wire_make_no_object_per_row():
    # (7, 6, 4): 6 servers x 20 groups x 256 rows. Rows and permutations
    # travel as columns, so building, encoding and decoding each leave far
    # fewer GC-tracked objects than rows.
    params = SystemParams(n_attrs=7, d=6, k=4, q=65537, length=15)
    v_star = (1, 2, 3, 4, 1, 2, 3)
    dapac.build(v_star, params, derive_rng(0, "warm"))  # fill the set and trace memos
    gc.disable()
    try:
        before = len(gc.get_objects())
        plan, queries = dapac.build(v_star, params, derive_rng(1, "user", 0))
        built = len(gc.get_objects())
        frames = [encode_query(q) for q in queries.values()]
        encoded = len(gc.get_objects())
        decoded_queries = [decode_query(f) for f in frames]
        decoded = len(gc.get_objects())
    finally:
        gc.enable()
    rows = sum(len(g.vector) for q in queries.values() for g in q.groups)
    assert rows == 30720
    assert built - before < rows / 8
    assert encoded - built < rows / 8
    assert decoded - encoded < rows / 8
    assert decoded_queries == list(queries.values())
