"""Auditor checks: the machinery itself plus cheap instances of each audit.

The expensive full audit points (50-trial sweeps) run once in the
acceptance suite; here the same code paths are exercised at smaller sizes,
alongside white-box tests of the distribution comparison and negative
controls that prove the audits can detect violations. The secrecy audit
decides by rank over F_q; the pool-enumerating secrecy audit it replaced
is kept here as an oracle and must give the same reports. The privacy
audit compares copy classes: equal canonical forms are skipped, and other
pairs go through a union-find with potentials mod q. The enumerating
pairwise comparison is kept here as an oracle and must give the same TVs,
on the scheme points and on random wirings.
"""

from __future__ import annotations

import copy
import itertools
from array import array
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from hetdapac import audit
from hetdapac.access import (SystemParams, accessible_messages, message_index,
                             participating_ids)
from hetdapac.errors import ConfigError
from hetdapac.field import derive_rng
from hetdapac.harness import random_store
from hetdapac.mixer import INF
from hetdapac.randomness import RandomnessPool, allocate
from hetdapac.schemes import base as scheme_base
from hetdapac.schemes import engine as scheme_engine
from hetdapac.schemes import het1
from hetdapac.schemes.base import PlanGroup, SymBlock, SymVector

P_HET1 = SystemParams(n_attrs=3, d=2, k=2, q=3, length=2)
P_DAPAC = SystemParams(n_attrs=3, d=3, k=2, q=2, length=3)
P_HET2 = SystemParams(n_attrs=4, d=3, k=2, q=2, length=6)
# sub-packets of PACK_MIN_SYMBOLS = 32 symbols: answered by the packed kernel
P_PACKED = SystemParams(n_attrs=3, d=2, k=2, q=65537, length=64)

# privacy points past PRIVACY_POINTS: D = 4, and K = 3
WIDER_PRIVACY_POINTS = (
    ("dapac", SystemParams(n_attrs=4, d=4, k=2, q=65537, length=6)),
    ("het2", SystemParams(n_attrs=5, d=4, k=2, q=65537, length=10)),
    ("het2", SystemParams(n_attrs=4, d=4, k=3, q=65537, length=10)),
)

ENUMERATION_CAP = 1_000_000


class EnumerationRefusal(Exception):
    """An oracle would enumerate more states than its cap."""

    def __init__(self, message: str, size_estimate: int):
        super().__init__(f"{message} (estimated enumeration size: {size_estimate})")
        self.size_estimate = size_estimate


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


def plan_group(label, rows, vector) -> PlanGroup:
    """A plan group over (message id, logical index) rows."""
    return PlanGroup(label, tuple(m for m, _ in rows), array("I", [i for _, i in rows]),
                     vector)


def _merged_components(groups_a, groups_b) -> list[tuple[int, ...]]:
    """Partition group positions so draws are shared only within a part,
    under both symbolic structures at once."""
    parent = list(range(len(groups_a)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for groups in (groups_a, groups_b):
        owner: dict[int, int] = {}
        for gi, g in enumerate(groups):
            for block in g.vector.blocks:
                if block.draw in owner:
                    ra, rb = find(owner[block.draw]), find(gi)
                    parent[ra] = rb
                else:
                    owner[block.draw] = gi
    comps: dict[int, list[int]] = {}
    for gi in range(len(groups_a)):
        comps.setdefault(find(gi), []).append(gi)
    return [tuple(v) for _, v in sorted(comps.items())]


def _component_table(groups, members, q: int, cap: int) -> tuple[Counter, int]:
    """Exact distribution of the tuple of concrete vectors for one
    component, by enumerating every assignment of its fresh draws."""
    draws: dict[int, int] = {}
    for gi in members:
        for block in groups[gi].vector.blocks:
            dim = draws.setdefault(block.draw, block.dim)
            if dim != block.dim:
                raise ConfigError(f"draw {block.draw} used at two dimensions")
    order = sorted(draws)
    total_dim = sum(draws[d] for d in order)
    size = q ** total_dim
    if size > cap:
        raise EnumerationRefusal(
            f"combining-vector space q^{total_dim} exceeds the cap {cap}", size)
    table: Counter = Counter()
    for flat in itertools.product(range(q), repeat=total_dim):
        at = 0
        value = {}
        for d in order:
            value[d] = flat[at:at + draws[d]]
            at += draws[d]
        key = tuple(
            tuple((value[b.draw][j] + b.offset[j]) % q
                  for b in groups[gi].vector.blocks for j in range(b.dim))
            for gi in members)
        table[key] += 1
    return table, size


def _table_tv(ta: Counter, na: int, tb: Counter, nb: int) -> Fraction:
    diff = sum(abs(ta.get(k, 0) * nb - tb.get(k, 0) * na)
               for k in set(ta) | set(tb))
    return Fraction(diff, 2 * na * nb)


def _joint_tv(parts, cap: int) -> Fraction:
    """Exact TV of two product distributions given the component tables
    that differ; identical components cancel exactly and are not passed."""
    joint_a, joint_b = Counter({(): 1}), Counter({(): 1})
    na = nb = 1
    for ta, sa, tb, sb in parts:
        if len(joint_a) * len(ta) > cap or len(joint_b) * len(tb) > cap:
            raise EnumerationRefusal(
                "joint table of differing components exceeds the cap",
                len(joint_a) * len(ta))
        joint_a = Counter({k + (x,): c * d for k, c in joint_a.items()
                           for x, d in ta.items()})
        joint_b = Counter({k + (x,): c * d for k, c in joint_b.items()
                           for x, d in tb.items()})
        na *= sa
        nb *= sb
    return _table_tv(joint_a, na, joint_b, nb)


def pair_tv(groups_v, groups_u, q: int) -> Fraction:
    """Exact TV between one server's observation distributions for two
    attribute vectors by the audit's copy classes, at any q."""
    return audit._coset_tv(audit._coset(groups_v, q, "first plan"),
                           audit._coset(groups_u, q, "second plan"), q)


def enumerating_pair_tv(groups_v, groups_u, q: int, cap: int) -> tuple[Fraction, int]:
    """Exact TV between one server's observation distributions for two
    attribute vectors. Returns (tv, assignments enumerated)."""
    if audit._row_view(groups_v) != audit._row_view(groups_u):
        return Fraction(1), 0  # deterministic, visible row difference
    audit._check_fresh_indices(groups_v, "first plan")
    audit._check_fresh_indices(groups_u, "second plan")
    enumerated = 0
    differing = []
    for members in _merged_components(groups_v, groups_u):
        tv_table, sv = _component_table(groups_v, members, q, cap)
        tu_table, su = _component_table(groups_u, members, q, cap)
        enumerated += sv + su
        if sv != su or tv_table != tu_table:
            differing.append((tv_table, sv, tu_table, su))
    if not differing:
        return Fraction(0), enumerated
    return _joint_tv(differing, cap), enumerated


class TestAttributePrivacy:
    def test_het1_every_server_tv_zero(self):
        for server, pairs in ((1, 4), (2, 4), (3, 12)):
            rep = audit.audit_attribute_privacy("het1", P_HET1, server)
            assert rep["max_tv"] == 0 and rep["pass"]
            assert rep["pairs"] == pairs

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
        pa = audit._trace_plan("het1", P_HET1, (1, 1, 1))
        pb = audit._trace_plan("het1", P_HET1, (2, 1, 1))
        tv = pair_tv(audit._observed_groups(pa, 1),
                     audit._observed_groups(pb, 1), 3)
        assert tv == 1

    def test_vector_wiring_difference_is_detected(self):
        # one shared draw versus two independent ones, same rows: the
        # diagonal distribution against the uniform one has TV 1 - 1/q
        def group(draw, msg):
            return plan_group(("g", msg), [(msg, 1)],
                              SymVector((SymBlock(draw, 1, (0,)),)))
        shared = [group(1, 0), group(1, 1)]
        split = [group(1, 0), group(2, 1)]
        for tv in (pair_tv(shared, split, 2),
                   enumerating_pair_tv(shared, split, 2, ENUMERATION_CAP)[0]):
            assert tv == Fraction(1, 2)

    def test_offset_difference_on_shared_draw_is_detected(self):
        vec = SymVector((SymBlock(1, 1, (0,)),))
        lifted = SymVector((SymBlock(1, 1, (1,)),))
        a = [plan_group(("g", 1), [(0, 1)], vec),
             plan_group(("g", 2), [(1, 1)], vec)]
        b = [plan_group(("g", 1), [(0, 1)], vec),
             plan_group(("g", 2), [(1, 1)], lifted)]
        for tv in (pair_tv(a, b, 3),
                   enumerating_pair_tv(a, b, 3, ENUMERATION_CAP)[0]):
            assert tv == 1  # (x, x) never equals (x, x+1)

    def test_repeated_logical_index_is_rejected(self):
        vec = SymVector((SymBlock(1, 2, (0, 0)),))
        bad = [plan_group(("g",), [(0, 1), (0, 1)], vec)]
        with pytest.raises(ConfigError):
            pair_tv(bad, bad, 2)

    @pytest.mark.parametrize("q", (2, 3, 5, 7))
    def test_rank_test_matches_enumeration_on_random_wiring(self, q):
        # the scheme points only reach TV 0 and row-view TV 1; random
        # wirings of three draws with sparse offsets reach every case of
        # the coset formula, disjoint cosets included
        rng = derive_rng(q, "random-wiring")

        def groups(sizes):
            dims = {1: 1, 2: rng.randint(1, 2), 3: rng.randint(1, 2)}
            out = []
            for gi, size in enumerate(sizes):
                blocks = []
                while sum(b.dim for b in blocks) < size:
                    room = size - sum(b.dim for b in blocks)
                    draw = rng.choice([d for d in dims if dims[d] <= room])
                    blocks.append(SymBlock(draw, dims[draw], tuple(
                        rng.choice((0, 0, rng.randrange(q))) for _ in range(dims[draw]))))
                out.append(plan_group(("g", gi), [(10 * gi + j, 1) for j in range(size)],
                                      SymVector(tuple(blocks))))
            return out

        seen = set()
        for _ in range(200):
            sizes = [rng.randint(1, 2) for _ in range(rng.randint(1, 3))]
            a, b = groups(sizes), groups(sizes)
            tv = pair_tv(a, b, q)
            assert tv == enumerating_pair_tv(a, b, q, ENUMERATION_CAP)[0]
            seen.add(tv)
        assert 0 in seen and 1 in seen and any(0 < tv < 1 for tv in seen)

    @pytest.mark.parametrize("scheme,params", audit.PRIVACY_POINTS + WIDER_PRIVACY_POINTS)
    def test_privacy_passes_at_large_field(self, scheme, params):
        params = replace(params, q=65537)
        for server in audit.privacy_servers(scheme, params):
            rep = audit.audit_attribute_privacy(scheme, params, server)
            assert rep["max_tv"] == 0 and rep["pass"]

    @pytest.mark.parametrize("scheme,params", audit.PRIVACY_POINTS + WIDER_PRIVACY_POINTS)
    def test_suite_reports_equal_one_server_reports(self, scheme, params):
        checks = audit.point_checks("privacy", scheme, params)
        servers = [c["report"]["server"] for c in checks]
        assert servers == list(audit.privacy_servers(scheme, params))
        for check, server in zip(checks, servers):
            assert check["report"] == audit.audit_attribute_privacy(scheme, params, server)

    @pytest.mark.parametrize("point,vectors", zip(audit.PRIVACY_POINTS, (8, 8, 16)))
    def test_suite_traces_each_vector_once(self, monkeypatch, point, vectors):
        builds = Counter()
        trace_plan = audit._trace_plan

        def counting(scheme, params, v_star):
            builds[v_star] += 1
            return trace_plan(scheme, params, v_star)

        monkeypatch.setattr(audit, "_trace_plan", counting)
        assert all(c["pass"] for c in audit.point_checks("privacy", *point))
        assert len(builds) == vectors and set(builds.values()) == {1}

    def test_out_of_range_server_is_refused_before_any_build(self, monkeypatch):
        def no_build(scheme, params, v_star):
            raise AssertionError(f"built the plan for {v_star}")

        monkeypatch.setattr(audit, "_trace_plan", no_build)
        for server in (0, -1, P_HET1.central + 1):
            with pytest.raises(ConfigError, match=f"server {server} out of range"):
                audit.audit_attribute_privacy("het1", P_HET1, server)
        with pytest.raises(ConfigError, match="server 4 out of range"):
            audit._privacy_reports("het1", P_HET1, [1, P_HET1.central, 4])

    def test_shared_draw_leak_is_caught_by_the_audit(self, monkeypatch):
        # central group 1 reuses group 0's draw only when v*_1 = 1, so the
        # central server's forms differ inside a bucket: the audit must
        # compare pairs there, not skip the bucket, and report the first
        # worst pair with the enumerated TV
        trace_plan = audit._trace_plan
        central = P_HET1.central

        def leaky(scheme, params, v_star):
            plan = trace_plan(scheme, params, v_star)
            if v_star[0] == 1:
                # on a copy: every build of the key shares the trace
                groups = list(plan.groups[central])
                groups[1] = replace(groups[1], vector=groups[0].vector)
                plan = copy.copy(plan)
                plan.groups = {**plan.groups, central: groups}
            return plan

        monkeypatch.setattr(audit, "_trace_plan", leaky)
        rep = audit.audit_attribute_privacy("het1", P_HET1, central)
        assert rep["max_tv"] > 0 and not rep["pass"]
        assert rep["pairs"] == 12
        observed = {v: audit._observed_groups(leaky("het1", P_HET1, v), central)
                    for v in itertools.product((1, 2), repeat=3)}
        tvs = {(v, u): enumerating_pair_tv(observed[v], observed[u], P_HET1.q,
                                           ENUMERATION_CAP)[0]
               for public in (1, 2)
               for v, u in itertools.combinations(
                   [s + (public,) for s in itertools.product((1, 2), repeat=2)], 2)}
        assert rep["max_tv"] == tvs[rep["worst_pair"]] == max(tvs.values())
        assert rep["worst_pair"] == next(p for p, tv in tvs.items() if tv == rep["max_tv"])

    @pytest.mark.parametrize("scheme,params", audit.PRIVACY_POINTS)
    def test_rank_test_matches_enumeration(self, scheme, params):
        # every pair of vectors, same view or not, at every queried server
        space = list(itertools.product(range(1, params.k + 1),
                                       repeat=params.n_attrs))
        plans = {v: audit._trace_plan(scheme, params, v) for v in space}
        compared = 0
        for server in audit.privacy_servers(scheme, params):
            observed = {v: audit._observed_groups(plan, server)
                        for v, plan in plans.items()}
            for v, u in itertools.combinations(space, 2):
                a, b = observed[v], observed[u]
                assert pair_tv(a, b, params.q) == \
                    enumerating_pair_tv(a, b, params.q, ENUMERATION_CAP)[0], (server, v, u)
                compared += 1
        assert compared == {"het1": 84, "dapac": 84, "het2": 480}[scheme]

    def test_permutation_marginal_matches_full_enumeration(self):
        # smallest case: two sub-packets, so each private permutation has
        # two values; enumerating them all must give the uniform-over-
        # arrangements marginal the privacy audit assumes
        # (the trace's projection with each flat permutation column in turn;
        # the draws do not enter the rows, so they stay zero)
        params = SystemParams(n_attrs=3, d=2, k=2, q=65537, length=2)
        trace = scheme_base.plan_trace("het1", params, (1, 2, 1))
        values = array("I", [0]) * sum(trace.dims)
        observed = Counter()
        for orders in itertools.product([(1, 2), (2, 1)], repeat=trace.count):
            plan, queries = trace.project(params, array("I", itertools.chain(*orders)), values)
            key = tuple(tuple(row for g in queries[s].groups
                              for row in g.descriptor.rows)
                        for s in sorted(queries))
            observed[key] += 1
        # every wire view equally likely, and per message the index pair on
        # the central server covers both arrangements
        assert trace.count == 4
        assert len(observed) == 2 ** trace.count
        assert set(observed.values()) == {1}
        central = sorted(plan.groups)[-1]
        for key in observed:
            per_msg = {}
            for msg, widx in key[central - 1]:
                per_msg.setdefault(msg, []).append(widx)
            assert all(sorted(v) == [1, 2] for v in per_msg.values())


def enumerating_db_secrecy(scheme: str, params: SystemParams, v_star=None, seed=11,
                           cap: int = ENUMERATION_CAP) -> dict:
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

    _, queries = eng.build(v_star, params, derive_rng(seed, "audit", "secrecy"))
    desired = message_index(v_star, params)
    store = random_store(params, seed)
    other = random_store(params, (seed, "affine-witness"))

    def answers(st, pool):
        return audit._answer_tuple(eng, audit._contexts(params, v_star, st, pool, queries),
                                   queries)

    def answers_at(ctxs, pool):
        # the contexts' tables and slices, answered from another pool
        return audit._answer_tuple(
            eng, {server: replace(ctx, pool=pool) for server, ctx in ctxs.items()}, queries)

    ctxs_store = audit._contexts(params, v_star, store, zero_pool, queries)
    ctxs_other = audit._contexts(params, v_star, other, zero_pool, queries)
    base = answers(store, zero_pool)
    other_base = answers(other, zero_pool)
    table: Counter = Counter()
    for flat in itertools.product(range(q), repeat=n_symbols):
        pool = RandomnessPool(scheme, params, clen, {
            lab: flat[i * clen:(i + 1) * clen] for i, lab in enumerate(labels)})
        ans = answers_at(ctxs_store, pool)
        pad = tuple((a - b) % q for a, b in zip(ans, base))
        check = tuple((a + b) % q for a, b in zip(pad, other_base))
        if check != answers_at(ctxs_other, pool):
            raise ConfigError("answers do not split into store part plus pad")
        table[pad] += 1

    def shifted_tv(delta):
        moved = Counter({tuple((k[j] + delta[j]) % q for j in range(len(delta))): c
                         for k, c in table.items()})
        return _table_tv(table, size, moved, size)

    max_tv = Fraction(0)
    worst = None
    perturbations = 0
    for m in participating_ids(params, tuple(v_star[params.d:])):
        if m == desired:
            continue
        for alt in itertools.product(range(q), repeat=params.length):
            if alt == tuple(store[m]):
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


def strip_pads(monkeypatch):
    """Answer every group without its pad chunks, whichever kernel runs."""
    combine = scheme_base.combine

    def no_pad(vector, arrays, ends, pads, q, length):
        return combine(vector, arrays, ends, [], q, length)

    monkeypatch.setattr(scheme_base, "combine", no_pad)


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
        strip_pads(monkeypatch)
        for rep in (audit.audit_db_secrecy("het1", P_HET1),
                    enumerating_db_secrecy("het1", P_HET1)):
            assert rep["max_tv"] == 1 and not rep["pass"]

    def test_a_leak_on_one_dedicated_server_is_found(self, monkeypatch):
        # server 1 names no pad labels, so its shares go out unpadded: a
        # shift is re-answered only where a slice holds it, and must still
        # reach the one server that leaks
        label_table = het1.label_table

        def unpadded(server, params, public, own_value):
            table = label_table(server, params, public, own_value)
            return {key: [] for key in table} if server == 1 else table

        monkeypatch.setattr(het1, "label_table", unpadded)
        rep = audit.audit_db_secrecy("het1", P_HET1)
        assert rep["max_tv"] == 1 and not rep["pass"]
        m, _ = rep["worst_perturbation"]
        assert m in accessible_messages(1, rep["v_star"], P_HET1)
        # the oracle names the first leaking value of m, the rank audit the
        # first leaking unit shift of it: the message is what both must agree on
        oracle = enumerating_db_secrecy("het1", P_HET1)
        assert {**rep, "worst_perturbation": m} == \
            {**oracle, "worst_perturbation": oracle["worst_perturbation"][0]}

    def test_packed_answers_pass(self):
        assert P_PACKED.length // P_PACKED.d == scheme_base.PACK_MIN_SYMBOLS
        rep = audit.audit_db_secrecy("het1", P_PACKED)
        assert rep["max_tv"] == 0 and rep["pass"]
        assert rep["desired_control_tv"] == 1

    def test_zero_pads_leak_on_packed_answers(self, monkeypatch):
        strip_pads(monkeypatch)
        rep = audit.audit_db_secrecy("het1", P_PACKED)
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
        assert _table_tv(table, 1, moved, 1) == 1


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
        assert got["load_ratio"]["expected"] == INF
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

    def test_privacy_audit_rejects_an_unknown_scheme(self):
        with pytest.raises(ConfigError, match="unknown scheme tag 'foo'"):
            audit.audit_attribute_privacy("foo", P_HET1, 1)


class TestSuites:
    def test_run_suites_shape(self):
        rep = audit.run_suites(["counts"])
        assert rep["pass"]
        assert rep["suites"][0]["suite"] == "counts"
        assert all(set(c) >= {"name", "pass", "report"}
                   for c in rep["suites"][0]["checks"])

    @pytest.mark.parametrize("suite", list(audit.POINTS))
    def test_a_point_list_runs_the_suites_own_checks(self, suite):
        # a configured point goes through the very checks of the built-in
        # suite: same names, same pass rules, same reports
        builtin = audit.run_suites([suite], trials=1)["suites"][0]["checks"]
        start = 0
        for point in audit.POINTS[suite]:
            rep = audit.run_suites([suite], points=[point], trials=1)
            checks = rep["suites"][0]["checks"]
            assert checks and checks == builtin[start:start + len(checks)]
            assert rep["pass"] == all(c["pass"] for c in checks)
            start += len(checks)
        assert start == len(builtin)

    def test_unknown_suite_is_refused(self):
        with pytest.raises(ConfigError, match="unknown suite 'bogus'"):
            audit.point_checks("bogus", *audit.CORRECTNESS_POINTS[0])

    def test_privacy_suite_covers_all_servers(self):
        rep = audit.suite_privacy()
        names = [c["name"] for c in rep["checks"]]
        assert len(names) == 3 + 3 + 4
        assert rep["pass"]
