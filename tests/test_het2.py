"""het2 engine: frozen walkthroughs of (4, 3, 2) and of the split cover at D = 4.

The walkthrough pins v* = (1, 2, 1, 2) (mnemonic a2uy, id 5) with message
ids a1uy=1, a1vy=3, a2uy=5, a2vy=7, b1uy=9, b1vy=11, b2uy=13, b2vy=15.
With D = 3 every pair is a cycle pair and the desired message's reserved
sub-packet indices are i1 = 1, 2, 3 and i2 = 4, 5, 6 over the sorted pairs
(1,2), (1,3), (2,3).
"""

from __future__ import annotations

import pytest

from hetdapac.access import SystemParams, all_pairs, message_index
from hetdapac.field import derive_rng
from hetdapac.harness import random_store, run_protocol
from hetdapac.schemes import dapac, het2
from hetdapac.schemes.base import SymInverse, plan_trace

P432 = SystemParams(n_attrs=4, d=3, k=2, q=65537, length=6)
V = (1, 2, 1, 2)  # a2uy, id 5

SRV1 = [[(1, 1), (3, 1)], [(5, 1), (7, 1)], [(1, 2), (5, 2)], [(3, 2), (7, 2)]]
SRV2 = [[(5, 4), (7, 1)], [(13, 1), (15, 1)], [(5, 3), (13, 2)], [(7, 3), (15, 2)]]
SRV3 = [[(1, 2), (5, 5)], [(9, 1), (13, 3)], [(1, 3), (9, 2)], [(5, 6), (13, 2)]]
CENTRAL = [
    [(1, 1), (3, 1), (5, 1), (7, 1)],     # concat of server 1's pair groups
    [(9, 3), (11, 1), (13, 4), (15, 3)],  # fresh, far-value-major blocks
    [(1, 4), (9, 4), (3, 3), (11, 2)],
    [(5, 3), (13, 2), (7, 3), (15, 2)],   # concat of server 2's pair groups
    [(1, 2), (5, 5), (9, 1), (13, 3)],    # concat of server 3's pair groups
    [(3, 4), (7, 4), (11, 3), (15, 4)],
]


def traced_plan(params, v_star):
    """The symbolic plan every build of (params, v*) evaluates."""
    return plan_trace("het2", params, v_star)


def cycle_entries(decoding):
    """(known, unknown, higher, lower) per cycle pair of a decoding table
    keyed by logical index: the unknown index's terms are the known one's,
    then the higher and the lower twin's."""
    by_terms = {terms: logical for logical, terms in decoding.items()}
    return [(by_terms[terms[:-2]], unknown, terms[-2], terms[-1])
            for unknown, terms in decoding.items() if terms[:-2] in by_terms]


def built_decoding(plan, trace):
    """A built plan's decode terms keyed by logical index: its decode list
    holds one entry per entry of the trace's table, in the table's order."""
    return {logical: terms for logical, (_, terms) in zip(trace.decoding, plan.decoding)}


def test_desired_index_map_covers_all_subpackets():
    i1, i2, ic = dapac.desired_index_map(het2.cycle_pairs(3), 3)
    assert i1 == {(1, 2): 1, (1, 3): 2, (2, 3): 3}
    assert i2 == {(1, 2): 4, (1, 3): 5, (2, 3): 6}
    assert ic == {}
    cycle4 = het2.cycle_pairs(4)
    i1, i2, ic = dapac.desired_index_map(cycle4, 4)
    merged = sorted(list(i1.values()) + list(i2.values()) + list(ic.values()))
    assert merged == list(range(1, 11))
    assert set(ic) == set(all_pairs(4)) - set(cycle4)


class TestWalkthrough:
    def test_frozen_group_rows(self):
        plan = traced_plan(P432, V)
        assert [g.rows for g in plan.groups[1]] == SRV1
        assert [g.rows for g in plan.groups[2]] == SRV2
        assert [g.rows for g in plan.groups[3]] == SRV3
        assert [g.rows for g in plan.groups[P432.central]] == CENTRAL

    def test_cycle_twins_share_the_vector_unlifted(self):
        plan = traced_plan(P432, V)
        vec = {(s, i): plan.groups[s][i].vector for s in (1, 2, 3)
               for i in range(4)}
        # twins carry two desired sub-packets under one vector, so the
        # twin vector is the owner's draw with no unit offset
        assert vec[2, 0] == vec[1, 1]
        assert vec[3, 0] == vec[1, 2]
        assert vec[3, 3] == vec[2, 2]
        fresh = [v for v in vec.values() if len(v.runs) == 1]
        assert len({v.runs for v in fresh}) == 9

    def test_central_concat_blocks_reference_dedicated_draws(self):
        plan = traced_plan(P432, V)
        ded = {(s, i): plan.groups[s][i].vector.runs for s in (1, 2, 3) for i in range(4)}
        central = [g.vector for g in plan.groups[P432.central]]
        # server 1 toward 2, far value 2 verified: second run lifted at
        # the desired row (row 1 of {a2uy, a2vy}), coordinate 2 in all
        assert central[0].runs == ded[1, 0] + ded[1, 1]
        assert central[0].offsets == ((2, 1),)
        # server 2 toward 3, far value 1 verified: first run lifted
        assert central[3].runs == ded[2, 2] + ded[2, 3]
        assert central[3].offsets == ((0, 1),)
        # server 3 toward 1: first run is the shared twin draw, lifted at
        # row 2 of {a1uy, a2uy}
        assert central[4].runs == ded[3, 0] + ded[3, 1]
        assert central[4].offsets == ((1, 1),)
        # the off-value central groups are fresh single draws of 4 places
        for gi in (1, 2, 5):
            assert len(central[gi].runs) == 1 and central[gi].dim == 4
            assert central[gi].offsets == ()

    def test_decode_plan_stages(self):
        plan = traced_plan(P432, V)
        dec = plan.decoding
        assert sorted(dec) == [1, 2, 3, 4, 5, 6]
        # stage 1: central share minus server n's K concatenated shares
        assert dec[1] == ((4, 0, 1), (1, 0, -1), (1, 1, -1))
        assert dec[3] == ((4, 3, 1), (2, 2, -1), (2, 3, -1))
        assert dec[5] == ((4, 4, 1), (3, 0, -1), (3, 1, -1))
        # stage 2: each cycle pair's unknown index extends its known one
        # (i1 for (1,2) and (2,3), i2 for (1,3)) by the higher twin minus
        # the lower, over c: symbolic, so the coefficients are the inverse
        # of the lower twin's desired coordinate, +- by orientation
        cycles = {(higher[0], lower[0]): (known, unknown, higher[:2], lower[:2])
                  for known, unknown, higher, lower in cycle_entries(plan.decoding)}
        assert cycles == {(2, 1): (1, 4, (2, 0), (1, 1)),
                          (3, 1): (5, 2, (3, 0), (1, 2)),
                          (3, 2): (3, 6, (3, 3), (2, 2))}
        desired = message_index(V, P432)
        for known, unknown, higher, lower in cycle_entries(plan.decoding):
            owner = plan.groups[lower[0]][lower[1]]
            ((start, _),) = owner.vector.runs
            sign = 1 if known < unknown else -1
            assert higher[2] == SymInverse(start + owner.row_of(desired) - 1, 0, sign)
            assert lower[2] == -higher[2]
        # no rest pair at D = 3
        assert all(len(terms) > 2 for terms in dec.values())

    def test_decode_plan_cycle_coefficients(self):
        # concrete draws: +-1/c on the higher twin, -+1/c on the lower,
        # the sign set by which of i1 and i2 stage 1 knows
        plan, queries = het2.build(V, P432, derive_rng(7, "user", 0))
        trace = traced_plan(P432, V)
        desired = message_index(V, P432)
        for known, unknown, higher, lower in cycle_entries(built_decoding(plan, trace)):
            server, gi, _ = lower
            row = trace.groups[server][gi].row_of(desired)
            c = queries[server].groups[gi].vector[row - 1]
            sign = 1 if known < unknown else -1
            assert higher[2] * c % P432.q == sign % P432.q
            assert lower[2] == -higher[2]

    def test_run_metrics(self):
        store = random_store(P432, 4)
        msg, transcript, metrics = run_protocol("het2", P432, V, store, seed=3)
        assert msg == store[5]
        assert metrics["download_total"] == 18
        assert metrics["download_central"] == 6
        assert metrics["download_dedicated"] == {1: 4, 2: 4, 3: 4}
        assert metrics["rate"] == pytest.approx(1 / 3)
        assert metrics["load_ratio"] == pytest.approx(2 / 3)
        # at D = 3 the cycle covers every pair, so consumption is total
        assert metrics["randomness_allocated_chunks"] == 12
        assert metrics["randomness_consumed_chunks"] == 12
        assert metrics["randomness_consumed_symbols"] == 12


P542 = SystemParams(n_attrs=5, d=4, k=2, q=65537, length=10)


class TestSplitCover:
    """D = 4 exercises rest pairs, which D = 3 cannot."""

    V = (1, 2, 1, 2, 2)

    def test_rest_twins_identical_rows_lifted_vector(self):
        plan = traced_plan(P542, self.V)
        rest = [terms for terms in plan.decoding.values() if len(terms) == 2]
        assert len(rest) == 2
        for (high_s, high_gi, high_c), (low_s, low_gi, low_c) in rest:
            assert (high_c, low_c) == (1, -1)
            lower = plan.groups[low_s][low_gi]
            higher = plan.groups[high_s][high_gi]
            assert lower.rows == higher.rows
            row = lower.row_of(message_index(self.V, P542))
            assert higher.vector.runs == lower.vector.runs
            assert higher.vector.offsets == ((row - 1, 1),)

    def test_cycle_twins_differ_only_at_desired_row(self):
        plan = traced_plan(P542, self.V)
        desired = message_index(self.V, P542)
        cycles = cycle_entries(plan.decoding)
        assert len(cycles) == 4
        for known, unknown, (high_s, high_gi, _), (low_s, low_gi, _) in cycles:
            lower = plan.groups[low_s][low_gi]
            higher = plan.groups[high_s][high_gi]
            assert higher.vector == lower.vector
            assert lower.rows[lower.row_of(desired) - 1][1] == min(known, unknown)    # i1
            assert higher.rows[higher.row_of(desired) - 1][1] == max(known, unknown)  # i2
            others = [r for r in lower.rows if r[0] != desired]
            assert others == [r for r in higher.rows if r[0] != desired]

    def test_run_metrics_and_partial_consumption(self):
        store = random_store(P542, 6)
        msg, transcript, metrics = run_protocol("het2", P542, self.V, store, seed=2)
        assert msg == store[message_index(self.V, P542)]
        assert metrics["download_total"] == 32
        assert metrics["rate"] == pytest.approx(5 / 16)      # (D+1)/(2KD)
        assert metrics["load_ratio"] == pytest.approx(3 / 4)  # (D-1)/D
        # rest pairs never meet the central server, so their doubly
        # mismatched pads stay untouched: DK^2 + |rest|(2K-1) of C(D,2)K^2
        assert metrics["randomness_allocated_chunks"] == 24
        assert metrics["randomness_consumed_chunks"] == 22

    def test_consumed_labels_match_the_cover(self):
        store = random_store(P542, 6)
        _, transcript, _ = run_protocol("het2", P542, self.V, store, seed=2)
        consumed = {lbl for _, lbl in transcript.consumed}
        cycle = het2.cycle_pairs(4)
        values = self.V[:4]
        expected = set()
        for n, m in cycle:
            for k in range(1, 3):
                for k2 in range(1, 3):
                    expected.add(("pair", n, m, k, k2))
        for n, m in set(all_pairs(4)) - set(cycle):
            for k in range(1, 3):
                expected.add(("pair", n, m, values[n - 1], k))
                expected.add(("pair", n, m, k, values[m - 1]))
        assert consumed == expected


@pytest.mark.parametrize("params, v_star", [(P432, V), (P542, TestSplitCover.V)])
def test_cycle_coefficients_are_distinct_unlifted_draws(params, v_star):
    # the premise of drawing them nonzero in place: the D coefficients
    # het2 divides by are coordinates of D distinct fresh draws with
    # offset 0, and no other draw is conditioned
    plan = traced_plan(params, v_star)
    desired = message_index(v_star, params)
    owners = []
    for *_, (low_s, low_gi, _) in cycle_entries(plan.decoding):
        owner = plan.groups[low_s][low_gi]
        ((start, end),) = owner.vector.runs
        assert owner.vector.offsets == ()
        owners.append((end, start + owner.row_of(desired) - 1))
    assert len({end for end, _ in owners}) == params.d
    assert plan.nonzero == tuple(sorted(owners))


def test_dapac_asks_no_coordinate_nonzero():
    params = SystemParams(n_attrs=5, d=4, k=2, q=65537, length=6)
    assert plan_trace("dapac", params, TestSplitCover.V).nonzero == ()
