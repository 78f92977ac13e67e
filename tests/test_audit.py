"""Auditor checks: the machinery itself plus cheap instances of each audit.

The expensive full audit points (50-trial sweeps) run once in the
acceptance suite; here the same code paths are exercised at smaller sizes,
alongside white-box tests of the distribution comparison and negative
controls that prove the audits can detect violations. The secrecy audit
decides by rank over F_q; the pool-enumerating secrecy audit it replaced
is kept here as an oracle and must give the same reports.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from hetdapac import audit
from hetdapac.access import SystemParams, build_partition, message_index, participating_ids
from hetdapac.errors import ConfigError, EnumerationRefusal
from hetdapac.field import derive_rng
from hetdapac.harness import random_store
from hetdapac.randomness import RandomnessPool, allocate
from hetdapac.schemes import base as scheme_base
from hetdapac.schemes import engine as scheme_engine
from hetdapac.schemes.base import PlanGroup, SymBlock, SymVector

P_HET1 = SystemParams(n_attrs=3, d=2, k=2, q=3, length=2)
P_DAPAC = SystemParams(n_attrs=3, d=3, k=2, q=2, length=3)
P_HET2 = SystemParams(n_attrs=4, d=3, k=2, q=2, length=6)


class TestCorrectness:
    @pytest.mark.parametrize("scheme,params", audit.CORRECTNESS_POINTS)
    def test_short_sweep_has_no_failures(self, scheme, params):
        rep = audit.audit_correctness(scheme, params, trials=2)
        assert rep["failures"] == 0
        assert rep["runs"] == params.k ** params.n_attrs * 2
        assert rep["attempts"] >= rep["runs"]
        assert rep["pass"]

    def test_retry_frequency_is_exact(self):
        rep = audit.audit_correctness("het1", P_HET1, trials=1)
        assert rep["retry_frequency"] == Fraction(0)


class TestAttributePrivacy:
    def test_het1_every_server_tv_zero(self):
        for server, pairs in ((1, 4), (2, 4), (3, 12)):
            rep = audit.audit_attribute_privacy("het1", P_HET1, server)
            assert rep["max_tv"] == 0 and rep["pass"]
            assert rep["pairs"] == pairs
            assert rep["enumerated"] > 0

    def test_dapac_every_server_tv_zero(self):
        for server in (1, 2, 3):
            rep = audit.audit_attribute_privacy("dapac", P_DAPAC, server)
            assert rep["max_tv"] == 0
            assert rep["pairs"] == 12

    def test_het2_per_attempt_tv_zero(self):
        for server in (1, 2, 3, 4):
            rep = audit.audit_attribute_privacy("het2", P_HET2, server)
            assert rep["max_tv"] == 0
        central = audit.audit_attribute_privacy("het2", P_HET2, 4)
        assert central["pairs"] == 2 * 28  # both publics, all pairs of 8

    def test_differing_view_rows_are_distinguishable(self):
        # negative control: server 1 comparing across its own value
        pa = audit._trace_plan("het1", P_HET1, (1, 1, 1), None)
        pb = audit._trace_plan("het1", P_HET1, (2, 1, 1), None)
        tv, _ = audit._pair_tv(audit._observed_groups(pa, 1),
                               audit._observed_groups(pb, 1), 3, 10**6)
        assert tv == 1

    def test_vector_wiring_difference_is_detected(self):
        # one shared draw versus two independent ones, same rows: the
        # diagonal distribution against the uniform one has TV 1 - 1/q
        def group(draw, msg):
            return PlanGroup(("g", msg), [(msg, 1)],
                             SymVector((SymBlock(draw, 1, (0,)),)))
        shared = [group(1, 0), group(1, 1)]
        split = [group(1, 0), group(2, 1)]
        tv, _ = audit._pair_tv(shared, split, 2, 10**6)
        assert tv == Fraction(1, 2)

    def test_offset_difference_on_shared_draw_is_detected(self):
        vec = SymVector((SymBlock(1, 1, (0,)),))
        lifted = SymVector((SymBlock(1, 1, (1,)),))
        a = [PlanGroup(("g", 1), [(0, 1)], vec),
             PlanGroup(("g", 2), [(1, 1)], vec)]
        b = [PlanGroup(("g", 1), [(0, 1)], vec),
             PlanGroup(("g", 2), [(1, 1)], lifted)]
        tv, _ = audit._pair_tv(a, b, 3, 10**6)
        assert tv == 1  # (x, x) never equals (x, x+1)

    def test_repeated_logical_index_is_rejected(self):
        vec = SymVector((SymBlock(1, 2, (0, 0)),))
        bad = [PlanGroup(("g",), [(0, 1), (0, 1)], vec)]
        with pytest.raises(ConfigError):
            audit._pair_tv(bad, bad, 2, 10**6)

    def test_enumeration_refusal_reports_size(self):
        with pytest.raises(EnumerationRefusal) as exc:
            audit.audit_attribute_privacy("het1", P_HET1, 3, cap=8)
        assert exc.value.size_estimate == 9  # q^dim = 3^2 per fresh draw

    def test_permutation_marginal_matches_full_enumeration(self):
        # smallest case: two sub-packets, so each private permutation has
        # two values; enumerating them all must give the uniform-over-
        # arrangements marginal the privacy audit assumes
        params = SystemParams(n_attrs=3, d=2, k=2, q=65537, length=2)
        eng = scheme_engine("het1")
        plan, _ = eng.build((1, 2, 1), params, derive_rng(0, "perm-check"))
        msgs = sorted(plan.perms)
        observed = Counter()
        for orders in itertools.product([(1, 2), (2, 1)], repeat=len(msgs)):
            plan.perms = dict(zip(msgs, orders))
            queries = plan.wire_queries()
            key = tuple(tuple(row for g in queries[s].groups
                              for row in g.descriptor.rows)
                        for s in sorted(queries))
            observed[key] += 1
        # every wire view equally likely, and per message the index pair on
        # the central server covers both arrangements
        assert len(observed) == 2 ** len(msgs)
        assert set(observed.values()) == {1}
        central = sorted(plan.groups)[-1]
        for key in observed:
            per_msg = {}
            for msg, widx in key[central - 1]:
                per_msg.setdefault(msg, []).append(widx)
            assert all(sorted(v) == [1, 2] for v in per_msg.values())


def enumerating_db_secrecy(scheme: str, params: SystemParams, v_star=None, seed=11,
                           cap: int = audit.DEFAULT_ENUMERATION_CAP) -> dict:
    """Brute-force secrecy check for one fixed query draw.

    Enumerates every assignment of the shared-randomness pool through the
    real answering path, both for the base store and for an independent
    store (which pins the answers' split into a store part plus a
    pool-only pad for every assignment, not just sampled ones). Then for
    every single-message perturbation of a non-desired participating
    message, compares the exact answer distributions. Perturbing a message
    no server is asked about cannot change any answer, so those are
    skipped. The desired message itself is perturbed once as a control:
    its distributions must differ, or decoding would be impossible.
    """
    v_star = v_star or audit._default_vstar(params)
    partition = build_partition(params.d) if scheme == "het2" else None
    eng = scheme_engine(scheme)
    q = params.q
    zero_pool = allocate(scheme, params, tuple(v_star[params.d:]), 0).zeros_like()
    clen = zero_pool.chunk_len
    labels = zero_pool.labels()
    n_symbols = len(labels) * clen
    size = q ** n_symbols
    if size > cap:
        raise EnumerationRefusal(
            f"pool space q^{n_symbols} exceeds the cap {cap}", size)

    _, queries = eng.build(v_star, params,
                           derive_rng(seed, "audit", "secrecy"), partition)
    desired = message_index(v_star, params)
    store = random_store(params, seed)
    other = random_store(params, (seed, "affine-witness"))

    def answers(st, pool):
        ctxs = audit._contexts(scheme, params, v_star, st, pool, partition, queries)
        return audit._answer_tuple(eng, ctxs, queries, pool)

    ctxs_store = audit._contexts(scheme, params, v_star, store, zero_pool,
                                 partition, queries)
    ctxs_other = audit._contexts(scheme, params, v_star, other, zero_pool,
                                 partition, queries)
    base = audit._answer_tuple(eng, ctxs_store, queries, zero_pool)
    other_base = audit._answer_tuple(eng, ctxs_other, queries, zero_pool)
    table: Counter = Counter()
    for flat in itertools.product(range(q), repeat=n_symbols):
        pool = RandomnessPool(scheme, params, clen, {
            lab: flat[i * clen:(i + 1) * clen] for i, lab in enumerate(labels)})
        ans = audit._answer_tuple(eng, ctxs_store, queries, pool)
        pad = tuple((a - b) % q for a, b in zip(ans, base))
        check = tuple((a + b) % q for a, b in zip(pad, other_base))
        if check != audit._answer_tuple(eng, ctxs_other, queries, pool):
            raise ConfigError("answers do not split into store part plus pad")
        table[pad] += 1

    def shifted_tv(delta):
        moved = Counter({tuple((k[j] + delta[j]) % q for j in range(len(delta))): c
                         for k, c in table.items()})
        return audit._table_tv(table, size, moved, size)

    max_tv = Fraction(0)
    worst = None
    perturbations = 0
    for m in participating_ids(params, tuple(v_star[params.d:])):
        if m == desired:
            continue
        for alt in itertools.product(range(q), repeat=params.length):
            if alt == store[m]:
                continue
            mutated = dict(store)
            mutated[m] = alt
            delta = tuple((a - b) % q
                          for a, b in zip(answers(mutated, zero_pool), base))
            tv = shifted_tv(delta)
            perturbations += 1
            if tv > max_tv:
                max_tv, worst = tv, (m, alt)

    control = dict(store)
    control[desired] = tuple((s + 1) % q for s in store[desired])
    control_delta = tuple((a - b) % q
                          for a, b in zip(answers(control, zero_pool), base))
    return {
        "scheme": scheme, "params": params, "v_star": tuple(v_star),
        "pool_assignments": size, "perturbations": perturbations,
        "max_tv": max_tv, "worst_perturbation": worst,
        "desired_control_tv": shifted_tv(control_delta),
        "pass": max_tv == 0,
    }


class TestDbSecrecy:
    def test_het1_brute_force_tv_zero(self):
        rep = audit.audit_db_secrecy("het1", P_HET1)
        assert rep["pool_assignments"] == 81
        assert rep["perturbations"] == 3 * 8
        assert rep["max_tv"] == 0 and rep["pass"]
        assert rep["desired_control_tv"] == 1

    @pytest.mark.parametrize("scheme,params", audit.SECRECY_POINTS[:2])
    def test_rank_test_matches_enumeration(self, scheme, params):
        assert audit.audit_db_secrecy(scheme, params) == \
            enumerating_db_secrecy(scheme, params)

    @pytest.mark.parametrize("scheme,params", audit.SECRECY_POINTS)
    def test_passes_at_large_field(self, scheme, params):
        rep = audit.audit_db_secrecy(scheme, replace(params, q=65537))
        assert rep["max_tv"] == 0 and rep["pass"]
        assert rep["desired_control_tv"] == 1
        assert rep["pool_assignments"] > 65537

    def test_zero_pads_leak_under_both_auditors(self, monkeypatch):
        def no_pad(pool, labels, q):
            return (0,) * pool.chunk_len

        monkeypatch.setattr(scheme_base, "_pad_sum", no_pad)
        for rep in (audit.audit_db_secrecy("het1", P_HET1),
                    enumerating_db_secrecy("het1", P_HET1)):
            assert rep["max_tv"] == 1 and not rep["pass"]

    def test_zero_pads_leak(self):
        # strip the pads and the same comparison must detect the change:
        # with a deterministic answer, any perturbation that touches a
        # queried message separates the distributions completely
        q = P_HET1.q
        table = Counter({(0,) * 6: 1})
        delta = (1,) + (0,) * 5
        moved = Counter({tuple((k[j] + delta[j]) % q for j in range(6)): c
                         for k, c in table.items()})
        assert audit._table_tv(table, 1, moved, 1) == 1


class TestCounts:
    def test_grid_suite_passes(self):
        rep = audit.suite_counts()
        assert rep["pass"]
        assert len(rep["checks"]) == 16  # het1 and dapac at 6 points, het2 at 4

    def test_wide_het1_point(self):
        rep = audit.audit_counts(
            "het1", SystemParams(n_attrs=5, d=4, k=3, q=65537, length=4))
        got = {c["name"]: c for c in rep["checks"]}
        assert got["rate"]["expected"] == Fraction(1, 4)
        assert got["load_ratio"]["expected"] == Fraction(1, 12)
        assert got["consumed_symbols"]["expected"] == 12  # KL
        assert rep["pass"]

    def test_wide_het2_point(self):
        rep = audit.audit_counts(
            "het2", SystemParams(n_attrs=6, d=4, k=3, q=65537, length=10))
        got = {c["name"]: c for c in rep["checks"]}
        assert got["rate"]["expected"] == Fraction(5, 24)
        assert got["load_ratio"]["expected"] == Fraction(3, 4)
        assert rep["pass"]

    def test_wide_dapac_point(self):
        rep = audit.audit_counts(
            "dapac", SystemParams(n_attrs=4, d=4, k=3, q=65537, length=6))
        got = {c["name"]: c for c in rep["checks"]}
        assert got["rate"]["expected"] == Fraction(1, 6)
        assert got["load_ratio"]["expected"] == audit.INF
        assert got["allocated_symbols"]["expected"] == 54  # K^2 L
        assert rep["pass"]

    def test_het2_consumed_less_than_allocated_at_four_servers(self):
        params = SystemParams(n_attrs=5, d=4, k=2, q=65537, length=10)
        forms = audit.closed_forms("het2", params)
        assert forms["consumed_symbols"] == 22
        assert forms["allocated_symbols"] == 24
        assert audit.audit_counts("het2", params)["pass"]

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigError):
            audit.closed_forms("het3", P_HET1)


class TestSuites:
    def test_run_suites_shape(self):
        rep = audit.run_suites(["counts"])
        assert rep["pass"]
        assert rep["suites"][0]["suite"] == "counts"
        assert all(set(c) >= {"name", "pass", "report"}
                   for c in rep["suites"][0]["checks"])

    def test_privacy_suite_covers_all_servers(self):
        rep = audit.suite_privacy()
        names = [c["name"] for c in rep["checks"]]
        assert len(names) == 3 + 3 + 4
        assert rep["pass"]
