"""het1 engine: frozen walkthroughs of two small systems, plus invariants.

The (3, 2, 2) walkthrough pins the full query layout for v* = (1, 2, 2)
(mnemonic a2y): message ids a1y=1, a2y=3, b1y=5, b2y=7. Rows are frozen
as (message id, logical sub-packet index) pairs; the wire indices differ
by the private permutations and are checked separately.
"""

from __future__ import annotations

import itertools
from array import array

import pytest

from hetdapac.access import SystemParams, accessible_messages, message_index, participating_ids
from hetdapac.errors import ConfigError, DivisibilityError
from hetdapac.field import derive_rng
from hetdapac.harness import random_store, run_protocol
from hetdapac.randomness import allocate
from hetdapac.schemes import het1
from hetdapac.schemes.base import FreshIndexCounter, plan_trace, server_context

P322 = SystemParams(n_attrs=3, d=2, k=2, q=65537, length=2)
P432 = SystemParams(n_attrs=4, d=3, k=2, q=65537, length=3)


def traced_plan(params, v_star):
    """The symbolic plan every build of (params, v*) evaluates."""
    return plan_trace("het1", params, v_star)


def rows_of(plan, server):
    return [g.rows for g in plan.groups[server]]


class TestTwoServerWalkthrough:
    V = (1, 2, 2)  # a2y, id 3

    def test_central_groups_in_nk_order(self):
        plan = traced_plan(P322, self.V)
        assert rows_of(plan, P322.central) == [
            [(1, 1), (3, 1)],   # candidate set for n=1, value a
            [(5, 1), (7, 1)],   # n=1, value b
            [(1, 2), (5, 2)],   # n=2, value 1
            [(3, 2), (7, 2)],   # n=2, value 2
        ]
        assert [g.label for g in plan.groups[P322.central]] == [
            ("nk", 1, 1), ("nk", 1, 2), ("nk", 2, 1), ("nk", 2, 2)]

    def test_dedicated_groups_mirror_matching_central_group(self):
        plan = traced_plan(P322, self.V)
        central = plan.groups[P322.central]
        assert plan.groups[1][0].rows == central[0].rows
        assert plan.groups[2][0].rows == central[3].rows

    def test_dedicated_vectors_are_lifted_central_draws(self):
        plan = traced_plan(P322, self.V)
        central = plan.groups[P322.central]
        ded1 = plan.groups[1][0].vector.blocks[0]
        ded2 = plan.groups[2][0].vector.blocks[0]
        # same draw as the mirrored central group, +1 at the desired row
        assert ded1.draw == central[0].vector.blocks[0].draw
        assert ded1.offset == (0, 1)
        assert ded2.draw == central[3].vector.blocks[0].draw
        assert ded2.offset == (1, 0)
        # the four central draws are fresh and unlifted
        draws = [g.vector.blocks[0] for g in central]
        assert len({b.draw for b in draws}) == 4
        assert all(b.offset == (0, 0) for b in draws)

    def test_decode_steps_point_at_mirrored_groups(self):
        # logical sub-packet: dedicated share minus its mirrored central share
        plan = traced_plan(P322, self.V)
        assert plan.decoding == {1: ((1, 0, 1), (3, 0, -1)),
                                 2: ((2, 0, 1), (3, 3, -1))}

    def test_run_metrics(self):
        store = random_store(P322, 11)
        msg, transcript, metrics = run_protocol("het1", P322, self.V, store, seed=5)
        assert msg == store[3]
        assert metrics["download_total"] == 6
        assert metrics["download_central"] == 4
        assert metrics["download_dedicated"] == {1: 1, 2: 1}
        assert metrics["rate"] == pytest.approx(1 / 3)
        assert metrics["load_ratio"] == pytest.approx(1 / 4)
        # all KD chunks are consumed; one symbol each at L=2, D=2
        assert metrics["randomness_allocated_chunks"] == 4
        assert metrics["randomness_consumed_chunks"] == 4
        assert metrics["randomness_consumed_symbols"] == 4
        assert metrics["retries"] == 0

    def test_consumed_labels_are_the_full_pool(self):
        store = random_store(P322, 11)
        _, transcript, _ = run_protocol("het1", P322, self.V, store, seed=5)
        assert {lbl for _, lbl in transcript.consumed} == {
            ("nk", 1, 1), ("nk", 1, 2), ("nk", 2, 1), ("nk", 2, 2)}


class TestThreeServerWalkthrough:
    V = (1, 2, 1, 2)  # a2uy, id 5

    def test_dedicated_mirrors_and_lift_rows(self):
        plan = traced_plan(P432, self.V)
        central = plan.groups[P432.central]
        assert len(central) == 6
        # dedicated n mirrors central group (n, k_n): indices 0, 3, 4
        for n, ci, lifted_row in [(1, 0, 3), (2, 3, 1), (3, 4, 2)]:
            ded = plan.groups[n][0]
            assert ded.rows == central[ci].rows
            assert ded.vector.blocks[0].draw == central[ci].vector.blocks[0].draw
            offset = [0] * 4
            offset[lifted_row - 1] = 1
            assert ded.vector.blocks[0].offset == tuple(offset)

    def test_all_vectors_span_four_rows(self):
        plan = traced_plan(P432, self.V)
        for groups in plan.groups.values():
            for g in groups:
                assert g.vector.dim == len(g.rows) == 4

    def test_run_metrics(self):
        store = random_store(P432, 3)
        msg, _, metrics = run_protocol("het1", P432, self.V, store, seed=9)
        assert msg == store[5]
        assert metrics["download_total"] == 9
        assert metrics["download_central"] == 6
        assert metrics["rate"] == pytest.approx(1 / 3)
        assert metrics["load_ratio"] == pytest.approx(1 / 6)
        assert metrics["randomness_consumed_symbols"] == 6  # KL


def test_central_logicals_distinct_per_message():
    plan = traced_plan(P432, (2, 1, 2, 1))
    seen: dict[int, set] = {}
    for g in plan.groups[P432.central]:
        for msg, logical in g.rows:
            assert logical not in seen.setdefault(msg, set())
            seen[msg].add(logical)
    # every accessible message shows up once per dedicated-server round
    assert all(len(v) == P432.d for v in seen.values())


def test_wire_indices_follow_private_permutations():
    # the permutation of the message at position p among the participating
    # ones is the flat column's words [p * S, (p + 1) * S)
    v_star = (2, 1, 1)
    plan, queries = het1.build(v_star, P322, derive_rng(7, "user", 0))
    ids = participating_ids(P322, v_star[P322.d:])
    size = plan.subpackets
    assert len(plan.perms) == len(ids) * size
    for server, qt in queries.items():
        for g, qg in zip(plan.groups[server], qt.groups):
            for (msg, logical), (wmsg, wire) in zip(g.rows, qg.descriptor.rows):
                assert wmsg == msg
                assert wire == plan.perms[ids.index(msg) * size + logical - 1]


def test_roundtrip_all_targets_small_field():
    params = SystemParams(n_attrs=3, d=2, k=2, q=5, length=4)
    for seed, v_star in enumerate(itertools.product((1, 2), repeat=3)):
        store = random_store(params, seed + 100)
        msg, _, metrics = run_protocol("het1", params, v_star, store, seed=seed)
        assert msg == store[message_index(v_star, params)]
        assert metrics["retries"] == 0  # decode is division-free


def test_group_sets_cover_exactly_the_accessible_slice():
    plan = traced_plan(P432, (1, 1, 2, 1))
    for server in (1, 2, 3, P432.central):
        covered = {m for g in plan.groups[server] for m, _ in g.rows}
        assert covered == set(accessible_messages(server, (1, 1, 2, 1), P432))


def test_length_must_split_into_d_subpackets():
    params = SystemParams(n_attrs=3, d=2, k=2, q=65537, length=3)
    rng = derive_rng(0, "user", 0)
    with pytest.raises(DivisibilityError) as exc:
        het1.build((1, 1, 1), params, rng)
    assert exc.value.minimal_length == 2


def test_counter_refuses_an_exhausted_message():
    counter = FreshIndexCounter(2)
    assert counter.indices((4, 9)) == array("I", [1, 1])
    assert counter.indices((9,)) == array("I", [2])
    with pytest.raises(ConfigError, match="message 9 exhausted its 2 sub-packets"):
        counter.indices((4, 9))


def test_servers_share_one_frozenset_per_candidate_set():
    # every server's label table is the same K*D match sets: one object each
    params = SystemParams(n_attrs=5, d=3, k=3, q=65537, length=3)
    v_star = (1, 3, 2, 2, 1)
    public = v_star[params.d:]
    pool = allocate("het1", params, public, 0)
    store = random_store(params, 0)
    keys = [list(server_context(n, public, None if n == params.central else v_star[n - 1],
                                store, pool).table)
            for n in params.servers()]
    assert all(len(k) == params.k * params.d for k in keys)
    for other in keys[1:]:
        assert all(a is b for a, b in zip(keys[0], other))
