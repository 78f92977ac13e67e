"""Exact audits of the three retrieval engines.

Four families of checks, all exact:

* correctness sweeps run the full protocol over every attribute vector and
  many seeds, comparing the decoded message against the store;
* attribute privacy compares, per server, the exact distribution of what
  that server receives across attribute vectors it must not distinguish;
* database secrecy brute-forces every shared-randomness assignment and
  compares answer distributions across single-message store perturbations;
* accounting compares measured rate, load ratio, downloads and randomness
  against their closed forms as rationals.

Privacy distributions factor into two independent layers. Wire sub-packet
indices come from private uniform permutations, so an ordered list of
distinct per-message indices is uniform over arrangements whatever the
underlying logical indices were; that layer is marginalized analytically
after checking row structure and index freshness. Combining vectors are
enumerated exhaustively through a tracing source that exposes which groups
share which fresh draws, so correlated groups are compared jointly and
independent ones factor out.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction

from .access import SystemParams, build_partition, message_index, participating_ids
from .errors import ConfigError, EnumerationRefusal
from .field import derive_rng
from .harness import random_store, run_protocol
from .randomness import RandomnessPool, allocate, subpacket_count
from .schemes import engine as scheme_engine
from .schemes.base import TracingSource, server_context

INF = float("inf")

DEFAULT_ENUMERATION_CAP = 1_000_000


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


def _pair_tv(groups_v, groups_u, q: int, cap: int) -> tuple[Fraction, int]:
    """Exact TV between one server's observation distributions for two
    attribute vectors. Returns (tv, assignments enumerated)."""
    if _row_view(groups_v) != _row_view(groups_u):
        return Fraction(1), 0  # deterministic, visible row difference
    _check_fresh_indices(groups_v, "first plan")
    _check_fresh_indices(groups_u, "second plan")
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


def privacy_servers(scheme: str, params: SystemParams) -> range:
    """The servers a privacy audit covers: every server the scheme queries.

    dapac queries only the dedicated servers; het1 and het2 also query the
    central server, even when there are no public attributes (N == D).
    """
    return range(1, params.d + 1) if scheme == "dapac" else params.servers()


def audit_attribute_privacy(scheme: str, params: SystemParams, server: int,
                            cap: int = DEFAULT_ENUMERATION_CAP) -> dict:
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
    enumerated = 0
    worst = None
    publics = itertools.product(range(1, params.k + 1),
                                repeat=params.n_attrs - params.d)
    for public in publics:
        space = [tuple(s) + public for s in
                 itertools.product(range(1, params.k + 1), repeat=params.d)]
        observed = {v: _observed_groups(_trace_plan(scheme, params, v, partition),
                                        server)
                    for v in space}
        buckets: dict = {}
        for v in space:
            view = v[server - 1] if dedicated else None
            buckets.setdefault(view, []).append(v)
        for bucket in buckets.values():
            for v, u in itertools.combinations(bucket, 2):
                tv, n = _pair_tv(observed[v], observed[u], params.q, cap)
                pairs += 1
                enumerated += n
                if tv > max_tv:
                    max_tv, worst = tv, (v, u)
    return {
        "scheme": scheme, "params": params, "server": server,
        "pairs": pairs, "enumerated": enumerated,
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


def audit_db_secrecy(scheme: str, params: SystemParams, v_star=None, seed=11,
                     cap: int = DEFAULT_ENUMERATION_CAP) -> dict:
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
    v_star = v_star or _default_vstar(params)
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
        ctxs = _contexts(scheme, params, v_star, st, pool, partition, queries)
        return _answer_tuple(eng, ctxs, queries, pool)

    ctxs_store = _contexts(scheme, params, v_star, store, zero_pool,
                           partition, queries)
    ctxs_other = _contexts(scheme, params, v_star, other, zero_pool,
                           partition, queries)
    base = _answer_tuple(eng, ctxs_store, queries, zero_pool)
    other_base = _answer_tuple(eng, ctxs_other, queries, zero_pool)
    table: Counter = Counter()
    for flat in itertools.product(range(q), repeat=n_symbols):
        pool = RandomnessPool(scheme, params, clen, {
            lab: flat[i * clen:(i + 1) * clen] for i, lab in enumerate(labels)})
        ans = _answer_tuple(eng, ctxs_store, queries, pool)
        pad = tuple((a - b) % q for a, b in zip(ans, base))
        check = tuple((a + b) % q for a, b in zip(pad, other_base))
        if check != _answer_tuple(eng, ctxs_other, queries, pool):
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


# -------------------------------------------------------------- accounting

def closed_forms(scheme: str, params: SystemParams) -> dict:
    """Expected rate, load ratio, per-server downloads and randomness."""
    d, k, L = params.d, params.k, params.length
    pairs = d * (d - 1) // 2
    if scheme == "het1":
        return {
            "rate": Fraction(1, k + 1),
            "load_ratio": Fraction(1, k * d),
            "download_dedicated": Fraction(L, d),
            "download_central": Fraction(k * L),
            "allocated_symbols": k * L,
            "consumed_symbols": k * L,
        }
    if scheme == "het2":
        sub = subpacket_count(scheme, params)
        chunks = d * k * k + (pairs - d) * (2 * k - 1)
        return {
            "rate": Fraction(d + 1, 2 * k * d),
            "load_ratio": Fraction(d - 1, d),
            "download_dedicated": Fraction(2 * k * (d - 1) * L, d * (d + 1)),
            "download_central": Fraction(2 * k * L, d + 1),
            "allocated_symbols": Fraction((d - 1) * k * k * L, d + 1),
            "consumed_symbols": Fraction(chunks * L, sub),
        }
    if scheme == "dapac":
        return {
            "rate": Fraction(1, 2 * k),
            "load_ratio": INF,
            "download_dedicated": Fraction(2 * k * L, d),
            "download_central": Fraction(0),
            "allocated_symbols": k * k * L,
            "consumed_symbols": (2 * k - 1) * L,
        }
    raise ConfigError(f"unknown scheme {scheme!r}")


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
    if scheme == "dapac":
        length = max(1, d * (d - 1) // 2)
        return SystemParams(n_attrs=d, d=d, k=k, q=q, length=length)
    length = d if scheme == "het1" else d * (d + 1) // 2
    return SystemParams(n_attrs=d + 1, d=d, k=k, q=q, length=length)


def suite_correctness(trials: int = 50) -> dict:
    checks = []
    for scheme, params in CORRECTNESS_POINTS:
        rep = audit_correctness(scheme, params, trials=trials)
        ok = rep["pass"]
        if scheme == "het2":
            ok = ok and rep["retry_frequency"] <= Fraction(10 * params.d, params.q)
        checks.append({"name": f"correctness {scheme}", "pass": ok, "report": rep})
    return {"suite": "correctness", "checks": checks,
            "pass": all(c["pass"] for c in checks)}


def suite_privacy(cap: int = DEFAULT_ENUMERATION_CAP) -> dict:
    checks = []
    for scheme, params in PRIVACY_POINTS:
        for server in privacy_servers(scheme, params):
            rep = audit_attribute_privacy(scheme, params, server, cap=cap)
            checks.append({"name": f"privacy {scheme} server {server}",
                           "pass": rep["pass"], "report": rep})
    return {"suite": "privacy", "checks": checks,
            "pass": all(c["pass"] for c in checks)}


def suite_secrecy(cap: int = DEFAULT_ENUMERATION_CAP) -> dict:
    checks = []
    for scheme, params in SECRECY_POINTS:
        rep = audit_db_secrecy(scheme, params, cap=cap)
        ok = rep["pass"] and rep["desired_control_tv"] > 0
        checks.append({"name": f"secrecy {scheme}", "pass": ok, "report": rep})
    return {"suite": "secrecy", "checks": checks,
            "pass": all(c["pass"] for c in checks)}


def suite_counts() -> dict:
    checks = []
    for d, k in COUNTS_GRID:
        for scheme in ("het1", "het2", "dapac"):
            if scheme == "het2" and d < 3:
                continue
            rep = audit_counts(scheme, _grid_params(scheme, d, k))
            checks.append({"name": f"counts {scheme} D={d} K={k}",
                           "pass": rep["pass"], "report": rep})
    return {"suite": "counts", "checks": checks,
            "pass": all(c["pass"] for c in checks)}


SUITES = {
    "correctness": suite_correctness,
    "privacy": suite_privacy,
    "secrecy": suite_secrecy,
    "counts": suite_counts,
}


def run_suites(names) -> dict:
    reports = [SUITES[name]() for name in names]
    return {"suites": reports, "pass": all(r["pass"] for r in reports)}
