"""Exact audits of the three retrieval engines.

Four families of checks, all exact:

* correctness sweeps run the full protocol over every attribute vector and
  many seeds, comparing the decoded message against the store;
* attribute privacy compares, per server, the exact distribution of what
  that server receives across attribute vectors it must not distinguish;
* database secrecy is proven by rank over F_q, at any q: answers are
  affine in the uniform pool, so a store perturbation leaves the answer
  distribution unchanged exactly when its answer shift lies in the column
  space of the pad map, and otherwise moves it to a disjoint coset;
* accounting compares measured rate, load ratio, downloads and randomness
  against their closed forms as rationals.

Privacy distributions factor into two independent layers. Wire sub-packet
indices come from private uniform permutations, so an ordered list of
distinct per-message indices is uniform over arrangements whatever the
underlying logical indices were; that layer is marginalized analytically
after checking row structure and index freshness. Combining vectors are
traced symbolically: each observed coordinate copies one fresh uniform
draw plus a fixed offset, so a server's whole observation is uniform on a
coset c + U of a subspace of F_q^n. Two such cosets are compared by rank
over F_q, at any q: disjoint cosets give TV 1, otherwise TV is
1 - q^(min(dim U, dim V) - dim(U + V)).
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from fractions import Fraction

from .access import SystemParams, build_partition, message_index, participating_ids
from .errors import ConfigError
from .field import derive_rng
from .harness import random_store, run_protocol
from .mixer import INF, scheme_costs  # INF: dapac's expected load ratio
from .randomness import RandomnessPool, allocate, subpacket_count
from .schemes import engine as scheme_engine
from .schemes.base import TracingSource, server_context


def _default_vstar(params: SystemParams) -> tuple[int, ...]:
    return tuple((i % params.k) + 1 for i in range(params.n_attrs))


# ------------------------------------------------------------- correctness

def audit_correctness(scheme: str, params: SystemParams, trials: int = 50,
                      seed0=0, retry_cap: int = 8) -> dict:
    """Run every attribute vector `trials` times against fresh stores.

    Returns failure and retry counts; any mismatch between the decoded
    message and the stored one counts as a failure.
    """
    space = itertools.product(range(1, params.k + 1), repeat=params.n_attrs)
    failures = runs = retries = attempts = 0
    for v_star in space:
        for t in range(trials):
            seed = (seed0, scheme, v_star, t)
            store = random_store(params, seed)
            msg, transcript, _ = run_protocol(scheme, params, v_star, store,
                                              seed, retry_cap=retry_cap)
            runs += 1
            retries += transcript.retries
            attempts += transcript.attempts
            if msg != store[message_index(v_star, params)]:
                failures += 1
    return {
        "scheme": scheme, "params": params, "runs": runs,
        "failures": failures, "retries": retries, "attempts": attempts,
        "retry_frequency": Fraction(retries, runs),
        "pass": failures == 0,
    }


# ----------------------------------------------------------- rank over F_q

def _echelon(vectors, q: int, basis=None) -> dict[int, list[int]]:
    """Echelon basis over F_q of `basis` (left unchanged) extended by
    `vectors`, as pivot -> row with a unit pivot; its size is the rank."""
    rows = dict(basis or {})
    for vec in vectors:
        v = list(vec)
        for pivot in sorted(rows):
            if v[pivot]:
                v = [(a - v[pivot] * b) % q for a, b in zip(v, rows[pivot])]
        lead = next((i for i, x in enumerate(v) if x), None)
        if lead is not None:
            inv = pow(v[lead], -1, q)
            rows[lead] = [x * inv % q for x in v]
    return rows


# ------------------------------------------------------- attribute privacy

def _trace_plan(scheme: str, params: SystemParams, v_star, partition):
    """Build one plan with symbolic vectors; permutations are irrelevant
    because the audit works at the logical-index level."""
    eng = scheme_engine(scheme)
    rng = derive_rng(0, "audit", "trace", v_star)
    plan, _ = eng.build(v_star, params, rng, partition=partition,
                        source=TracingSource(params.q))
    return plan


def _observed_groups(plan, server: int):
    if server not in plan.groups:
        raise ConfigError(f"server {server} receives no query under {plan.scheme}")
    return sorted(plan.groups[server], key=lambda g: g.label)


def _row_view(groups) -> tuple:
    return tuple((g.label, tuple(m for m, _ in g.rows)) for g in groups)


def _check_fresh_indices(groups, where: str):
    seen: dict[int, set] = {}
    for g in groups:
        for msg, logical in g.rows:
            if logical in seen.setdefault(msg, set()):
                raise ConfigError(
                    f"message {msg} repeats logical index {logical} in {where}; "
                    "the permutation marginalization needs distinct indices")
            seen[msg].add(logical)


def _coset(groups, q: int, where: str):
    """One server's observation as an affine subspace of F_q^n.

    Every observed coordinate copies one coordinate of a fresh draw plus a
    fixed offset, so the groups' vectors concatenated in label order are
    c + M·s with s uniform: uniform on c + col(M), where M has one column
    per (draw, coordinate), the indicator of the positions that copy it.
    Returns (row view, c, echelon basis of col(M)).
    """
    _check_fresh_indices(groups, where)
    dims: dict[int, int] = {}
    copies: dict[tuple[int, int], list[int]] = {}
    offset: list[int] = []
    for g in groups:
        for block in g.vector.blocks:
            if dims.setdefault(block.draw, block.dim) != block.dim:
                raise ConfigError(f"draw {block.draw} used at two dimensions")
            for j, off in enumerate(block.offset):
                copies.setdefault((block.draw, j), []).append(len(offset))
                offset.append(off)
    columns = [[int(i in at) for i in range(len(offset))]
               for at in map(set, copies.values())]
    return _row_view(groups), offset, _echelon(columns, q)


def _coset_tv(obs_v, obs_u, q: int) -> Fraction:
    """Exact TV of the uniform distributions on A = a + U and B = b + V.

    They meet only if a - b lies in U + V, and then A ∩ B is a coset of
    U ∩ V, so TV = 1 - |A ∩ B| / max(|A|, |B|)
                 = 1 - q^(min(dim U, dim V) - dim(U + V)).
    """
    (view_v, a, span_u), (view_u, b, span_v) = obs_v, obs_u
    if view_v != view_u:
        return Fraction(1)  # deterministic, visible row difference
    joint = _echelon(span_v.values(), q, span_u)
    if len(_echelon([[(x - y) % q for x, y in zip(a, b)]], q, joint)) > len(joint):
        return Fraction(1)
    return 1 - Fraction(1, q ** (len(joint) - min(len(span_u), len(span_v))))


def _pair_tv(groups_v, groups_u, q: int) -> Fraction:
    """Exact TV between one server's observation distributions for two
    attribute vectors, at any q."""
    return _coset_tv(_coset(groups_v, q, "first plan"),
                     _coset(groups_u, q, "second plan"), q)


def privacy_servers(scheme: str, params: SystemParams) -> range:
    """The servers a privacy audit covers: every server the scheme queries.

    dapac queries only the dedicated servers; het1 and het2 also query the
    central server, even when there are no public attributes (N == D).
    """
    return range(1, params.d + 1) if scheme == "dapac" else params.servers()


def audit_attribute_privacy(scheme: str, params: SystemParams, server: int) -> dict:
    """Max exact TV distance of one server's received query distribution
    over all pairs of attribute vectors that agree on the server's view
    (its own verified value for a dedicated server, the public part
    always). Zero means the server learns nothing beyond its view.
    """
    partition = build_partition(params.d) if scheme == "het2" else None
    central = params.central
    dedicated = server != central
    if dedicated and not 1 <= server <= params.d:
        raise ConfigError(f"server {server} out of range")

    max_tv = Fraction(0)
    pairs = 0
    worst = None
    publics = itertools.product(range(1, params.k + 1),
                                repeat=params.n_attrs - params.d)
    for public in publics:
        space = [tuple(s) + public for s in
                 itertools.product(range(1, params.k + 1), repeat=params.d)]
        observed = {v: _coset(_observed_groups(_trace_plan(scheme, params, v, partition),
                                               server), params.q, f"the plan for {v}")
                    for v in space}
        buckets: dict = {}
        for v in space:
            view = v[server - 1] if dedicated else None
            buckets.setdefault(view, []).append(v)
        for bucket in buckets.values():
            for v, u in itertools.combinations(bucket, 2):
                tv = _coset_tv(observed[v], observed[u], params.q)
                pairs += 1
                if tv > max_tv:
                    max_tv, worst = tv, (v, u)
    return {
        "scheme": scheme, "params": params, "server": server,
        "pairs": pairs,
        "max_tv": max_tv, "worst_pair": worst,
        "pass": max_tv == 0,
    }


# --------------------------------------------------------- database secrecy

def _contexts(scheme, params, v_star, store, pool, partition, servers):
    public = v_star[params.d:]
    return {server: server_context(
                scheme, server, params, public,
                None if server == params.central else v_star[server - 1],
                store, pool, partition)
            for server in servers}


def _answer_tuple(eng, ctxs, queries, pool):
    out = []
    for server in sorted(queries):
        ctx = ctxs[server]
        ctx.pool = pool
        shares, _ = eng.answer_query(ctx, queries[server])
        for share in shares:
            out.extend(share.payload)
    return tuple(out)


def audit_db_secrecy(scheme: str, params: SystemParams, v_star=None, seed=11) -> dict:
    """Exact secrecy check for one fixed query draw, by rank over F_q.

    Answers are affine, a = S(store) + P·s with the pool s uniform, so the
    pad part is uniform on col(P): a store change whose answer shift lies
    in col(P) leaves the answer distribution as it was (TV 0), any other
    moves it to a disjoint coset (TV 1). P is read off one answer per unit
    pool through the real answering path; it must be the same under an
    independent store, and base + P·s must match the answers at a seeded
    uniform pool. S is linear, so the L unit shifts of a non-desired
    participating message cover all q^L - 1 perturbations of it. Shifting
    the desired message is the control: its TV must be 1, or decoding
    would be impossible.
    """
    v_star = v_star or _default_vstar(params)
    partition = build_partition(params.d) if scheme == "het2" else None
    eng = scheme_engine(scheme)
    q = params.q
    public = tuple(v_star[params.d:])
    uniform = allocate(scheme, params, public, seed)
    zero_pool = uniform.zeros_like()
    clen = zero_pool.chunk_len
    _, queries = eng.build(v_star, params,
                           derive_rng(seed, "audit", "secrecy"), partition)
    desired = message_index(v_star, params)
    store = random_store(params, seed)
    other = random_store(params, (seed, "affine-witness"))

    def answers(st, pool):
        ctxs = _contexts(scheme, params, v_star, st, pool, partition, queries)
        return _answer_tuple(eng, ctxs, queries, pool)

    def minus(a, b):
        return tuple((x - y) % q for x, y in zip(a, b))

    base, other_base = answers(store, zero_pool), answers(other, zero_pool)
    units = [RandomnessPool(scheme, params, clen, {
                 **zero_pool.chunks, label: tuple(int(t == j) for t in range(clen))})
             for label in zero_pool.labels() for j in range(clen)]
    columns = [minus(answers(store, pool), base) for pool in units]
    s = [x for label in zero_pool.labels() for x in uniform.chunk(label)]
    pads = tuple(sum(c[r] * x for c, x in zip(columns, s)) % q
                 for r in range(len(base)))
    if (columns != [minus(answers(other, pool), other_base) for pool in units]
            or minus(answers(store, uniform), base) != pads):
        raise ConfigError("answers do not split into store part plus pad")
    span = _echelon(columns, q)

    def tv(mutated) -> Fraction:
        delta = minus(answers(mutated, zero_pool), base)
        return Fraction(len(_echelon([delta], q, span)) - len(span))

    def bumped(m: int, j: int):
        alt = store[m][:]
        alt[j] = (alt[j] + 1) % q
        return alt

    others = [m for m in participating_ids(params, public) if m != desired]
    worst = next(((m, alt) for m in others for j in range(params.length)
                  for alt in [bumped(m, j)] if tv({**store, m: alt})), None)
    control = {**store, desired: tuple((x + 1) % q for x in store[desired])}
    return {
        "scheme": scheme, "params": params, "v_star": tuple(v_star),
        "pool_assignments": q ** len(s),
        "perturbations": len(others) * (q ** params.length - 1),
        "max_tv": Fraction(worst is not None), "worst_perturbation": worst,
        "desired_control_tv": tv(control),
        "pass": worst is None,
    }


# -------------------------------------------------------------- accounting

def closed_forms(scheme: str, params: SystemParams) -> dict:
    """Expected rate, load ratio, per-server downloads and randomness:
    the scheme's per-symbol costs, times L for the counts."""
    subpacket_count(scheme, params)  # refuses unknown schemes and het2 below D = 3
    costs = scheme_costs(params.d, params.k)[scheme]
    L = params.length
    return {
        "rate": costs.rate(params.d),
        "load_ratio": costs.load_ratio,
        "download_dedicated": costs.dedicated * L,
        "download_central": costs.central * L,
        "allocated_symbols": costs.allocated * L,
        "consumed_symbols": costs.consumed * L,
    }


def audit_counts(scheme: str, params: SystemParams, seed=5) -> dict:
    """One protocol run measured against every closed form, exactly."""
    forms = closed_forms(scheme, params)
    v_star = _default_vstar(params)
    store = random_store(params, seed)
    _, _, metrics = run_protocol(scheme, params, v_star, store, seed)
    measured = {
        "rate": metrics["rate"],
        "load_ratio": metrics["load_ratio"],
        "download_central": Fraction(metrics["download_central"]),
        "allocated_symbols": Fraction(metrics["randomness_allocated_symbols"]),
        "consumed_symbols": Fraction(metrics["randomness_consumed_symbols"]),
    }
    checks = []
    for name, expected in forms.items():
        if name == "download_dedicated":
            got = set(metrics["download_dedicated"].values())
            ok = got == {expected}
            checks.append({"name": name, "expected": expected,
                           "measured": sorted(got), "pass": ok})
        else:
            got = measured[name]
            checks.append({"name": name, "expected": expected,
                           "measured": got, "pass": got == expected})
    return {
        "scheme": scheme, "params": params, "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }


# ------------------------------------------------------------------ suites

CORRECTNESS_POINTS = (
    ("het1", SystemParams(n_attrs=3, d=2, k=2, q=65537, length=2)),
    ("het2", SystemParams(n_attrs=4, d=3, k=2, q=65537, length=6)),
    ("dapac", SystemParams(n_attrs=3, d=3, k=2, q=65537, length=3)),
)

PRIVACY_POINTS = (
    ("het1", SystemParams(n_attrs=3, d=2, k=2, q=3, length=2)),
    ("dapac", SystemParams(n_attrs=3, d=3, k=2, q=2, length=3)),
    ("het2", SystemParams(n_attrs=4, d=3, k=2, q=2, length=6)),
)

SECRECY_POINTS = (
    ("het1", SystemParams(n_attrs=3, d=2, k=2, q=3, length=2)),
    ("dapac", SystemParams(n_attrs=3, d=3, k=2, q=2, length=3)),
    ("het2", SystemParams(n_attrs=4, d=3, k=2, q=2, length=6)),
)

COUNTS_GRID = tuple((d, k) for d in (2, 3, 4) for k in (2, 3))


def _grid_params(scheme: str, d: int, k: int, q: int = 65537) -> SystemParams:
    """Smallest system exercising (D, K): one public attribute for the
    het schemes, none for dapac, at each scheme's minimal length."""
    n_attrs = d if scheme == "dapac" else d + 1
    params = SystemParams(n_attrs=n_attrs, d=d, k=k, q=q)
    return replace(params, length=subpacket_count(scheme, params))


def _suite(name: str, checks: list[dict]) -> dict:
    return {"suite": name, "checks": checks,
            "pass": all(c["pass"] for c in checks)}


def _point_checks(suite: str, scheme: str, params: SystemParams) -> list[dict]:
    """The privacy or secrecy checks at one parameter point: one per
    queried server, or the secrecy proof with its decodability control."""
    if suite == "privacy":
        return [{"name": f"privacy {scheme} server {server}", "pass": rep["pass"],
                 "report": rep}
                for server in privacy_servers(scheme, params)
                for rep in [audit_attribute_privacy(scheme, params, server)]]
    rep = audit_db_secrecy(scheme, params)
    return [{"name": f"secrecy {scheme}",
             "pass": rep["pass"] and rep["desired_control_tv"] > 0,
             "report": rep}]


def suite_correctness(trials: int = 50) -> dict:
    checks = []
    for scheme, params in CORRECTNESS_POINTS:
        rep = audit_correctness(scheme, params, trials=trials)
        ok = rep["pass"]
        if scheme == "het2":
            ok = ok and rep["retry_frequency"] <= Fraction(10 * params.d, params.q)
        checks.append({"name": f"correctness {scheme}", "pass": ok, "report": rep})
    return _suite("correctness", checks)


def suite_privacy() -> dict:
    return _suite("privacy", [c for scheme, params in PRIVACY_POINTS
                              for c in _point_checks("privacy", scheme, params)])


def suite_secrecy() -> dict:
    return _suite("secrecy", [c for scheme, params in SECRECY_POINTS
                              for c in _point_checks("secrecy", scheme, params)])


def suite_counts() -> dict:
    checks = []
    for d, k in COUNTS_GRID:
        for scheme in scheme_costs(d, k):
            rep = audit_counts(scheme, _grid_params(scheme, d, k))
            checks.append({"name": f"counts {scheme} D={d} K={k}",
                           "pass": rep["pass"], "report": rep})
    return _suite("counts", checks)


SUITES = {
    "correctness": suite_correctness,
    "privacy": suite_privacy,
    "secrecy": suite_secrecy,
    "counts": suite_counts,
}


def run_suites(names) -> dict:
    reports = [SUITES[name]() for name in names]
    return {"suites": reports, "pass": all(r["pass"] for r in reports)}
