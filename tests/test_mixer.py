"""Time-sharing algebra and the executed dapac/het1 mixed runs."""

from __future__ import annotations

import re
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import pytest

from hetdapac.access import SystemParams, message_index
from hetdapac.errors import ConfigError, DivisibilityError
from hetdapac.harness import random_store, run_protocol, run_segments, store_segment
from hetdapac.mixer import (
    INF,
    MixPlan,
    central_download_of_lambda,
    dedicated_download_of_lambda,
    frontier,
    frontier_rate,
    load_ratio_of_lambda,
    plan_mix,
    randomness_of_lambda,
    rate_of_lambda,
    rate_of_load,
    run_time_shared,
    scheme_costs,
)
from hetdapac.randomness import allocate

F = Fraction


def test_rate_endpoints_and_interior():
    # lambda is the dapac share: 0 is pure het1, 1 is pure dapac
    assert rate_of_lambda(0, 2) == F(1, 3)
    assert rate_of_lambda(1, 2) == F(1, 4)
    assert rate_of_lambda(F(3, 7), 2) == F(7, 24)
    assert rate_of_lambda(F(1, 2), 2) == F(2, 7)
    with pytest.raises(ConfigError):
        rate_of_lambda(F(3, 2), 2)


def test_load_ratio_endpoints_and_interior():
    assert load_ratio_of_lambda(0, 3, 2) == F(1, 6)
    assert load_ratio_of_lambda(F(3, 7), 3, 2) == F(2, 3)
    assert load_ratio_of_lambda(1, 3, 2) == INF
    assert load_ratio_of_lambda(F(1, 2), 2, 2) == F(5, 4)


def test_rate_of_load_endpoints():
    assert rate_of_load(F(1, 6), 3, 2) == F(1, 3)       # 1/(K+1)
    assert rate_of_load(INF, 3, 2) == F(1, 4)           # 1/(2K)
    assert rate_of_load(F(2, 3), 3, 2) == F(7, 24)      # (KD+K-1)/(2K^2D)
    with pytest.raises(ConfigError):
        rate_of_load(F(1, 7), 3, 2)


@pytest.mark.parametrize("d,k", [(2, 2), (3, 2), (4, 3), (5, 2)])
def test_load_reparameterization_identity(d, k):
    for num in range(0, 16):
        lam = F(num, 16)
        expect = rate_of_lambda(lam, k)
        assert rate_of_load(load_ratio_of_lambda(lam, d, k), d, k) == expect


def test_randomness_of_lambda():
    assert randomness_of_lambda(0, 2, 6) == 12          # KL
    assert randomness_of_lambda(1, 2, 6) == 24          # K^2 L
    assert randomness_of_lambda(F(3, 7), 2, 42) == 120


def test_download_formulas():
    assert dedicated_download_of_lambda(F(1, 2), 2, 2, 12) == 15
    assert central_download_of_lambda(F(1, 2), 2, 12) == 12
    assert dedicated_download_of_lambda(0, 3, 2, 6) == 2
    assert central_download_of_lambda(1, 2, 12) == 0


def test_timeshare_gap_below_het2_corner_is_exact():
    for d, k in [(3, 2), (4, 3)]:
        ell = F(d - 1, d)
        pure = F(d + 1, 2 * k * d)
        assert frontier_rate(ell, d, k) == pure
        assert pure - rate_of_load(ell, d, k) == F(1, 2 * k * k * d)


def test_frontier_anchors_and_monotonicity():
    points = frontier(4, 3, grid=50)
    assert (F(1, 12), F(1, 4)) in points
    assert (F(3, 4), F(5, 24)) in points
    assert points[-1] == (INF, F(1, 6))
    loads = [p[0] for p in points]
    rates = [p[1] for p in points]
    assert loads == sorted(loads)
    assert len(set(loads)) == len(loads)
    assert rates == sorted(rates, reverse=True)
    assert len(set(rates)) == len(rates)  # strictly decreasing at (4,3)


def test_frontier_dominates_timeshare_everywhere():
    for d, k in [(3, 2), (4, 3), (5, 2)]:
        for num in range(1, 64):
            lam = F(num, 64)
            ell = load_ratio_of_lambda(lam, d, k)
            assert frontier_rate(ell, d, k) >= rate_of_lambda(lam, k)
    # and strictly in the improved region around the split-cover anchor
    assert frontier_rate(F(3, 4), 4, 3) > rate_of_load(F(3, 4), 4, 3)


def test_frontier_needs_three_servers():
    with pytest.raises(ConfigError):
        frontier(2, 2)


def test_frontier_needs_two_points_per_segment():
    with pytest.raises(ConfigError, match="grid needs at least two points"):
        frontier(3, 2, grid=1)
    # but the reparameterized timeshare curve still exists at D=2
    assert frontier_rate(F(5, 4), 2, 2) == rate_of_load(F(5, 4), 2, 2)


@pytest.mark.parametrize("k", [2, 3])
def test_one_dedicated_server_has_no_lambda_family(k):
    # dapac pairs dedicated servers, so at D = 1 only het1 exists
    assert list(scheme_costs(1, k)) == ["het1"]
    for call in (lambda: load_ratio_of_lambda(F(1, 2), 1, k),
                 lambda: dedicated_download_of_lambda(F(1, 2), 1, k, 12),
                 lambda: rate_of_load(F(1, 2), 1, k),
                 lambda: frontier_rate(INF, 1, k)):
        with pytest.raises(ConfigError, match="D >= 2"):
            call()


def test_scheme_costs_match_pure_rates():
    for d, k in [(3, 2), (4, 3)]:
        costs = scheme_costs(d, k)
        het1 = costs["het1"]
        assert 1 / (d * het1.dedicated + het1.central) == F(1, k + 1)
        het2 = costs["het2"]
        assert 1 / (d * het2.dedicated + het2.central) == F(d + 1, 2 * k * d)
        assert het2.dedicated / het2.central == F(d - 1, d)
        dapac = costs["dapac"]
        assert 1 / (d * dapac.dedicated + dapac.central) == F(1, 2 * k)


class TestPlanMix:
    P = SystemParams(n_attrs=3, d=2, k=2, q=65537, length=12)

    def test_segments(self):
        mix = plan_mix(self.P, F(1, 2))
        assert mix.segments == (("dapac", 6), ("het1", 6))

    def test_divisibility_refusal_names_minimal_length(self):
        with pytest.raises(DivisibilityError) as exc:
            plan_mix(self.P, F(1, 4))  # het1 segment of 9 cannot split by D=2
        assert exc.value.minimal_length == 8
        mix = plan_mix(SystemParams(n_attrs=3, d=2, k=2, length=8), F(1, 4))
        assert mix.segments == (("dapac", 2), ("het1", 6))

    def test_endpoints(self):
        assert plan_mix(self.P, 0).segments == (("het1", 12),)
        assert plan_mix(self.P, 1).segments == (("dapac", 12),)

    def test_mix_needs_central(self):
        with pytest.raises(ConfigError):
            plan_mix(SystemParams(n_attrs=3, d=3, k=2, length=12), F(1, 2))

    def test_dapac_part_needs_two_dedicated_servers(self):
        one = SystemParams(n_attrs=2, d=1, k=2, length=2)
        assert plan_mix(one, 0).segments == (("het1", 2),)
        for lam in (F(1, 2), 1):
            with pytest.raises(ConfigError):
                plan_mix(one, lam)


class TestExecutedMix:
    P = SystemParams(n_attrs=3, d=2, k=2, q=65537, length=12)
    V = (1, 2, 2)

    def run(self, lam, length=12, seed=3):
        params = SystemParams(n_attrs=3, d=2, k=2, q=65537, length=length)
        store = random_store(params, 31)
        mix = plan_mix(params, lam)
        msg, transcript, metrics = run_time_shared(mix, self.V, store, seed)
        assert msg == store[message_index(self.V, params)]
        return transcript, metrics

    def test_half_mix_matches_all_closed_forms(self):
        _, metrics = self.run(F(1, 2))
        assert metrics["download_dedicated"] == {1: 15, 2: 15}
        assert metrics["download_central"] == 12
        assert metrics["download_total"] == 42
        assert metrics["rate"] == rate_of_lambda(F(1, 2), 2) == F(2, 7)
        assert metrics["load_ratio"] == load_ratio_of_lambda(F(1, 2), 2, 2)
        assert metrics["randomness_allocated_symbols"] == 36  # KL(lam(K-1)+1)
        assert metrics["randomness_consumed_symbols"] == 30   # L(K+lam(K-1))

    def test_quarter_mix_at_its_minimal_length(self):
        _, metrics = self.run(F(1, 4), length=8)
        assert metrics["download_dedicated"] == {1: 7, 2: 7}
        assert metrics["download_central"] == 12
        assert metrics["rate"] == F(4, 13) == rate_of_lambda(F(1, 4), 2)
        assert metrics["randomness_allocated_symbols"] == \
            randomness_of_lambda(F(1, 4), 2, 8)

    def test_segments_are_tagged(self):
        transcript, _ = self.run(F(1, 2))
        segs = {r.segment for r in transcript.records if r.phase == "retrieval"}
        assert segs == {"dapac", "het1"}
        # verification happens once, untagged
        ver = [r for r in transcript.records if r.phase == "verification"]
        assert ver and all(r.segment is None for r in ver)
        commits = [r for r in ver if r.kind == "attribute-commit"]
        assert len(commits) == 3  # two dedicated values plus the public part

    def test_endpoint_mixes_degenerate_to_pure_runs(self):
        params = self.P
        store = random_store(params, 31)
        for lam, scheme in ((0, "het1"), (1, "dapac")):
            mix_msg, mix_t, mix_m = run_time_shared(
                plan_mix(params, lam), self.V, store, seed=3)
            pure_msg, pure_t, pure_m = run_protocol(
                scheme, params, self.V, store, seed=3)
            assert mix_msg == pure_msg
            assert mix_m == pure_m
            assert mix_t.dumps() == pure_t.dumps()
        assert run_time_shared(plan_mix(params, 1), self.V, store, 3)[2][
            "download_central"] == 0

    def test_three_server_mix(self):
        params = SystemParams(n_attrs=4, d=3, k=2, q=65537, length=12)
        store = random_store(params, 7)
        v_star = (2, 1, 2, 1)
        mix = plan_mix(params, F(1, 2))
        msg, _, metrics = run_time_shared(mix, v_star, store, seed=5)
        assert msg == store[message_index(v_star, params)]
        assert metrics["download_dedicated"] == {1: 10, 2: 10, 3: 10}
        assert metrics["download_central"] == 12
        assert metrics["rate"] == F(2, 7)
        assert metrics["load_ratio"] == load_ratio_of_lambda(F(1, 2), 3, 2)


# ------------------------------------------------------- the plan's shape

# Every (params, lambda) this module plans, the refused ones included.
PLANNED = [
    (TestPlanMix.P, F(1, 2)), (TestPlanMix.P, F(1, 4)), (TestPlanMix.P, 0),
    (TestPlanMix.P, 1),
    (SystemParams(n_attrs=3, d=2, k=2, length=8), F(1, 4)),
    (SystemParams(n_attrs=3, d=3, k=2, length=12), F(1, 2)),
    *((SystemParams(n_attrs=2, d=1, k=2, length=2), lam) for lam in (0, F(1, 2), 1)),
    (SystemParams(n_attrs=3, d=2, k=2, q=65537, length=8), F(1, 4)),
    (SystemParams(n_attrs=4, d=3, k=2, q=65537, length=12), F(1, 2)),
]


@pytest.mark.parametrize("params, lam", PLANNED)
def test_the_constructor_is_plan_mix(params, lam):
    try:
        want = plan_mix(params, lam)
    except ConfigError as err:
        with pytest.raises(type(err), match=re.escape(str(err))):
            MixPlan(params, lam)
    else:
        assert MixPlan(params, lam) == want
        assert type(want.lam) is Fraction


P4 = SystemParams(n_attrs=3, d=2, k=2, q=65537, length=4)


@pytest.mark.parametrize("segments", [
    (("het1", 2), ("het1", 2)),   # one pool and one query stream twice
    (("het1", 2),),               # half the message
    (("dapac", 2), ("het1", 4)),  # more symbols than the message has
])
def test_segments_are_derived_never_given(segments):
    with pytest.raises(TypeError):
        MixPlan(P4, F(1, 2), segments)
    with pytest.raises(ValueError):
        replace(plan_mix(P4, F(1, 2)), segments=segments)


def test_a_replaced_weight_is_planned_again():
    plan = plan_mix(P4, F(1, 2))
    assert plan.segments == (("dapac", 2), ("het1", 2))
    with pytest.raises(DivisibilityError) as exc:
        replace(plan, lam=F(1, 3))
    assert exc.value.minimal_length == 3
    assert replace(plan, lam=0) == plan_mix(P4, 0)


P322 = SystemParams(n_attrs=3, d=2, k=2, length=8)


@pytest.mark.parametrize("ranges, match", [
    # a range shorter or longer than its pool is for
    ([("het1", 0, 2)], "does not hold the 4 symbols"),
    ([("het1", 0, 6)], "does not hold the 4 symbols"),
    # ranges that leave a gap, overlap, or stop short of L
    ([("het1", 4, 8)], "does not start where the last one stopped, at 0"),
    ([("dapac", 0, 4), ("het1", 2, 6)], "does not start where the last one stopped, at 4"),
    ([("dapac", 0, 4)], r"cover \[0, 4\), not the 8 symbols"),
])
def test_segments_that_do_not_tile_the_message_are_refused(ranges, match):
    store = random_store(P322, 3)
    segments = [(store_segment(store, start, stop),
                 allocate(scheme, replace(P322, length=4), (2,), 5))
                for scheme, start, stop in ranges]
    with pytest.raises(ConfigError, match=match):
        run_segments(P322, (1, 2, 2), 5, segments)


def test_a_mix_copies_no_symbol():
    # each segment reads its range of the stored arrays: a copy of both
    # ranges would take the store's 6.1 MB again, while the run peaks at
    # about 2.2 MB, in drawing the dapac pool
    params = SystemParams(n_attrs=4, d=3, k=4, length=6000)
    v_star = (2, 1, 3, 4)
    store = random_store(params, 1)
    store_bytes = sum(len(sym) * sym.itemsize for sym in store.values())
    mix = plan_mix(params, F(1, 2))
    tracemalloc.start()
    try:
        message, _, _ = run_time_shared(mix, v_star, store, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert message == store[message_index(v_star, params)]
    assert peak < store_bytes / 2, (peak, store_bytes)


def test_two_segments_of_one_scheme_are_refused():
    # two het1 pools over the two halves of L would share the segment tag
    # `het1` and one user stream, send byte-identical queries, and keep
    # only the second pool under the tag: 4 chunks allocated read where 8
    # were drawn
    store = random_store(P4, 3)
    public = (2,)
    half = replace(P4, length=2)
    segments = [(store_segment(store, start, start + 2), allocate("het1", half, public, 5))
                for start in (0, 2)]
    with pytest.raises(ConfigError, match="segments name one scheme twice"):
        run_segments(P4, (1, 2, 2), 5, segments)
