"""Exact audits of the three retrieval engines.

Four families of checks, all exact:

* correctness sweeps run the full protocol over every attribute vector and
  many seeds, comparing the decoded message against the store;
* attribute privacy compares, per server, the exact distribution of what
  that server receives across attribute vectors it must not distinguish;
  each vector's plan is traced once and read by every audited server;
* database secrecy is proven by rank over F_q, at any q: answers are
  affine in the uniform pool, so a store perturbation leaves the answer
  distribution unchanged exactly when its answer shift lies in the column
  space of the pad map, and otherwise moves it to a disjoint coset; each
  server re-answers only the pads its query names and messages it grants;
* accounting compares measured rate, load ratio, downloads and randomness
  against their closed forms as rationals.

A suite is a table of (scheme, params) points, `POINTS`. `point_checks`
turns one point into the suite's named PASS/FAIL checks, and `run_suites`
runs either the built-in tables or a given point list through it, so a
configured point gets the verdict it would get inside a built-in suite.

Privacy distributions factor into two independent layers. Wire sub-packet
indices come from private uniform permutations, so an ordered list of
distinct per-message indices is uniform over arrangements whatever the
underlying logical indices were; that layer is marginalized analytically
after checking row structure and index freshness. Combining vectors are
traced symbolically: each observed coordinate copies one place of the
draw column plus a fixed offset, so a server's observation is a partition
of its positions into copy classes, one per place, plus offsets. Equal
canonical forms are equal distributions and need no comparison; two
others are compared by a union-find over both partitions' classes with
potentials mod q, at any q: disjoint cosets give TV 1, otherwise
1 - q^(min(dim U, dim V) - dim(U + V)).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import attrgetter

from .access import SystemParams, message_index, participating_ids
from .errors import ConfigError
from .field import derive_rng
from .harness import random_store, run_protocol
from .mixer import scheme_costs
from .randomness import RandomnessPool, allocate
from .schemes import engine as scheme_engine
from .schemes.base import ServerContext, check_query, plan_trace, server_context


def _default_vstar(params: SystemParams) -> tuple[int, ...]:
    return tuple((i % params.k) + 1 for i in range(params.n_attrs))


# ------------------------------------------------------------- correctness

def audit_correctness(scheme: str, params: SystemParams, trials: int = 50) -> dict:
    """Run every attribute vector `trials` times against fresh stores.

    Returns failure and retry counts; any mismatch between the decoded
    message and the stored one counts as a failure.
    """
    space = itertools.product(range(1, params.k + 1), repeat=params.n_attrs)
    failures = runs = retries = attempts = 0
    for v_star in space:
        for t in range(trials):
            seed = (0, scheme, v_star, t)
            store = random_store(params, seed)
            msg, _, metrics = run_protocol(scheme, params, v_star, store, seed)
            runs += 1
            retries += metrics["retries"]
            attempts += metrics["attempts"]
            if msg != store[message_index(v_star, params)]:
                failures += 1
    return {
        "scheme": scheme, "params": params, "runs": runs,
        "failures": failures, "retries": retries, "attempts": attempts,
        "retry_frequency": Fraction(retries, runs),
        "pass": failures == 0,
    }


# ------------------------------------------------ rank over F_q (secrecy)

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

def _trace_plan(scheme: str, params: SystemParams, v_star):
    """The memoized trace every build of (scheme, params, v*) evaluates:
    symbolic vectors, no permutations drawn and no wire queries, because
    the audit works at the logical-index level."""
    return plan_trace(scheme, params, v_star)


def _row_view(groups) -> tuple:
    return tuple(g.ids for g in groups)


def _check_fresh_indices(groups, where: str):
    seen: dict[int, set] = {}
    for g in groups:
        for msg, logical in zip(g.ids, g.logical):
            if logical in seen.setdefault(msg, set()):
                raise ConfigError(
                    f"message {msg} repeats logical index {logical} in {where}; "
                    "the permutation marginalization needs distinct indices")
            seen[msg].add(logical)


def _coset(groups, q: int, where: str) -> tuple:
    """One server's observation in canonical form.

    The groups' vectors concatenated in the order they are sent are
    uniform on c + U, U spanned by the indicators of the copy classes:
    the positions that copy one place of the draw column. Returns (row
    view, each position's place numbered by first use, each offset minus
    its place's first); equal forms are exactly equal distributions. The
    row view is each group's message ids, in the same order.
    """
    _check_fresh_indices(groups, where)
    classes: dict[int, tuple[int, int]] = {}  # place -> (class, first offset)
    cls: list[int] = []
    offset: list[int] = []
    for g in groups:
        offsets, at = dict(g.vector.offsets), 0
        for a, b in g.vector.runs:
            for place in range(a, b):
                off = offsets.get(at, 0)
                at += 1
                c, first = classes.setdefault(place, (len(classes), off))
                cls.append(c)
                offset.append((off - first) % q)
    return _row_view(groups), tuple(cls), tuple(offset)


def _coset_tv(obs_a, obs_b, q: int) -> Fraction:
    """Exact TV of the uniform distributions on A = a + U and B = b + V.

    They meet only if a - b lies in U + V, and then A ∩ B is a coset of
    U ∩ V, so TV = 1 - |A ∩ B| / max(|A|, |B|)
                 = 1 - q^(min(dim U, dim V) - dim(U + V)).
    A union-find over the U- and V-classes, one edge per position asking
    pot(U-class) - pot(V-class) = a_i - b_i mod q, decides both: dim(U + V)
    is the number of joining unions, and a conflicting cycle means disjoint.
    """
    (view_a, cls_a, a), (view_b, cls_b, b) = obs_a, obs_b
    if view_a != view_b:
        return Fraction(1)  # deterministic, visible row difference
    dim_u, dim_v = len(set(cls_a)), len(set(cls_b))
    parent = list(range(dim_u + dim_v))
    pot = [0] * len(parent)  # a node's potential minus its parent's

    def find(x: int) -> int:
        path = []
        while parent[x] != x:
            path.append(x)
            x = parent[x]
        for y in reversed(path):  # nearest the root first; a root's pot is 0
            pot[y] = (pot[y] + pot[parent[y]]) % q
            parent[y] = x
        return x

    joins = 0
    for u, v, x, y in zip(cls_a, cls_b, a, b):
        v += dim_u
        ru, rv = find(u), find(v)
        shift = (x - y - pot[u] + pot[v]) % q  # what ru's pot must be over rv
        if ru != rv:
            parent[ru], pot[ru] = rv, shift
            joins += 1
        elif shift:
            return Fraction(1)  # a conflicting cycle: disjoint cosets
    return 1 - Fraction(1, q ** (joins - min(dim_u, dim_v)))


def privacy_servers(scheme: str, params: SystemParams) -> range:
    """The servers a privacy audit covers: every server the scheme queries.

    A scheme that queries the central server does so even when there are
    no public attributes (N == D).
    """
    if scheme_engine(scheme).QUERIES_CENTRAL:
        return params.servers()
    return range(1, params.d + 1)


def _privacy_reports(scheme: str, params: SystemParams, servers) -> list[dict]:
    """`audit_attribute_privacy`'s report for each of `servers`, in order.

    The K^D vectors of one public part are traced once, and every audited
    server reads its observation off those plans; they live only for that
    public part. Every server is checked to be one the scheme queries
    before any plan is built.
    """
    central, q = params.central, params.q
    queried = privacy_servers(scheme, params)
    for server in servers:
        if server not in queried:
            raise ConfigError(f"server {server} out of range: {scheme} queries "
                              f"servers {queried.start}..{queried.stop - 1}")

    reports = [{"scheme": scheme, "params": params, "server": server,
                "pairs": 0, "max_tv": Fraction(0), "worst_pair": None}
               for server in servers]
    publics = itertools.product(range(1, params.k + 1),
                                repeat=params.n_attrs - params.d)
    for public in publics:
        space = [tuple(s) + public for s in
                 itertools.product(range(1, params.k + 1), repeat=params.d)]
        plans = {v: _trace_plan(scheme, params, v) for v in space}
        for rep in reports:
            server = rep["server"]
            observed = {v: _coset(plan.groups[server], q, f"the plan for {v}")
                        for v, plan in plans.items()}
            buckets: dict = {}
            for v in space:
                view = v[server - 1] if server != central else None
                buckets.setdefault(view, []).append(v)
            for bucket in buckets.values():
                rep["pairs"] += math.comb(len(bucket), 2)
                if len({observed[v] for v in bucket}) == 1:
                    continue  # one form, one distribution: every pair has TV 0
                for v, u in itertools.combinations(bucket, 2):
                    tv = _coset_tv(observed[v], observed[u], q)
                    if tv > rep["max_tv"]:
                        rep["max_tv"], rep["worst_pair"] = tv, (v, u)
    for rep in reports:
        rep["pass"] = rep["max_tv"] == 0
    return reports


def audit_attribute_privacy(scheme: str, params: SystemParams, server: int) -> dict:
    """Max exact TV distance of one server's received query distribution
    over all pairs of attribute vectors that agree on the server's view
    (its own verified value for a dedicated server, the public part
    always). Zero means the server learns nothing beyond its view.
    """
    return _privacy_reports(scheme, params, [server])[0]


# --------------------------------------------------------- database secrecy

def _contexts(params, v_star, store, pool, servers):
    public = tuple(v_star[params.d:])
    return {server: server_context(
                server, public, None if server == params.central else v_star[server - 1],
                store, pool)
            for server in servers}


def _answer_tuple(eng, ctxs, queries):
    out = []
    for server in sorted(queries):
        shares, _ = eng.answer_query(ctxs[server], queries[server])
        for share in shares:
            out.extend(share.payload)
    return tuple(out)


def audit_db_secrecy(scheme: str, params: SystemParams) -> dict:
    """Exact secrecy check for one fixed query draw, by rank over F_q.

    Answers are affine, a = S(store) + P·s with the pool s uniform, so the
    pad part is uniform on col(P): a store change whose answer shift lies
    in col(P) leaves the answer distribution as it was (TV 0), any other
    moves it to a disjoint coset (TV 1). P is read off one answer per unit
    pool through the real answering path; it must be the same under an
    independent store, and base + P·s must match the answers at a seeded
    uniform pool. S is linear, so the L unit shifts of a non-desired
    participating message cover all q^L - 1 perturbations of it. Each
    server's query is checked once (`check_query`) and answered by the
    engine's `answer_query` on one context per store: only the messages
    its view grants and the chunks its query names, so a read of any
    other fails. A unit pool (label, j) is re-answered only where the
    query names the label, a shift of m only where the view grants m,
    written into that pool or store and restored after; every other
    server's part is zero. Shifting the desired message is the control:
    its TV must be 1, or decoding would be impossible.

    The query is the one the scheme builds, so this proves secrecy for a
    client that follows the scheme: the symmetric PIR model of Sun and
    Jafar, "The capacity of symmetric private information retrieval"
    (2016). A client that deviates is out of scope. P does not depend on
    the combining vectors, so a client that swaps them for uniform ones
    passes every guard of the answer path and can move answers outside
    col(P): at the three SECRECY_POINTS at q = 65537, 2 of 6 unit shifts
    for het1, 3 of 21 for dapac and 9 of 42 for het2.
    """
    v_star, seed = _default_vstar(params), 11
    eng, q = scheme_engine(scheme), params.q
    public = tuple(v_star[params.d:])
    uniform = allocate(scheme, params, public, seed)
    clen = uniform.chunk_len
    _, queries = eng.build(v_star, params, derive_rng(seed, "audit", "secrecy"))
    desired = message_index(v_star, params)
    store = random_store(params, seed)

    ctxs = _contexts(params, v_star, store, uniform, queries)
    checked = {server: check_query(ctx, queries[server]) for server, ctx in ctxs.items()}
    # each server's own pool: the chunks its checked query (its last field) names
    pools = {server: RandomnessPool(scheme, params, {
                 label: uniform.chunk(label) for labels in checked[server][-1] for label in labels})
             for server in sorted(checked)}
    own, witness = ({server: ServerContext(server, {m: st[m] for m in ctxs[server].view.granted},
                                           pool, ctxs[server].view)
                     for server, pool in pools.items()}
                    for st in (store, random_store(params, (seed, "affine-witness"))))

    def part(ctx):
        shares, _ = eng.answer_query(ctx, checked[ctx.server])
        return [x for share in shares for x in share.payload]

    def shift(contexts, base, key, value, table) -> list:
        # the answers' shift with `key` at `value` in each context's `table` that holds it
        delta = []
        for ctx, base_part in zip(contexts.values(), base):
            held = table(ctx)
            if key in held:
                old, held[key] = held[key], value
                try:
                    delta += [(x - y) % q for x, y in zip(part(ctx), base_part)]
                finally:
                    held[key] = old
            else:
                delta += [0] * len(base_part)
        return delta

    padded = _answer_tuple(eng, own, checked)  # at the uniform pool, then zeroed
    for pool in pools.values():
        pool.chunks.update(dict.fromkeys(pool.chunks, (0,) * clen))
    base, other_base = ([part(ctx) for ctx in side.values()] for side in (own, witness))
    units = [(label, tuple(int(t == j) for t in range(clen)))
             for label in uniform.labels() for j in range(clen)]
    chunks, stores = attrgetter("pool.chunks"), attrgetter("store")
    columns = [shift(own, base, label, unit, chunks) for label, unit in units]
    s = [x for label in uniform.labels() for x in uniform.chunk(label)]
    pads = [sum(c[r] * x for c, x in zip(columns, s)) % q for r in range(len(padded))]
    if (columns != [shift(witness, other_base, label, unit, chunks) for label, unit in units]
            or [(x - y) % q for x, y in zip(padded, itertools.chain(*base))] != pads):
        raise ConfigError("answers do not split into store part plus pad")
    span = _echelon(columns, q)

    def tv(m: int, alt) -> Fraction:
        return Fraction(len(_echelon([shift(own, base, m, alt, stores)], q, span)) - len(span))

    def bumped(m: int, j: int):
        alt = store[m][:]
        alt[j] = (alt[j] + 1) % q
        return alt

    others = [m for m in participating_ids(params, public) if m != desired]
    worst = next(((m, tuple(alt)) for m in others for j in range(params.length)
                  for alt in [bumped(m, j)] if tv(m, alt)), None)
    control = tuple((x + 1) % q for x in store[desired])
    return {
        "scheme": scheme, "params": params, "v_star": tuple(v_star),
        "pool_assignments": q ** len(s),
        "perturbations": len(others) * (q ** params.length - 1),
        "max_tv": Fraction(worst is not None), "worst_perturbation": worst,
        "desired_control_tv": tv(desired, control),
        "pass": worst is None,
    }


# -------------------------------------------------------------- accounting

def closed_forms(scheme: str, params: SystemParams) -> dict:
    """Expected rate, load ratio, per-server downloads and randomness:
    the scheme's per-symbol costs, times L for the counts."""
    scheme_engine(scheme).subpackets(params.d)  # refuses unknown schemes and low D
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


def audit_counts(scheme: str, params: SystemParams) -> dict:
    """One protocol run measured against every closed form, exactly."""
    forms = closed_forms(scheme, params)
    v_star, seed = _default_vstar(params), 5
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

def _grid_params(scheme: str, d: int, k: int) -> SystemParams:
    """Smallest system exercising (D, K): one public attribute for a
    scheme that queries the central server, none otherwise, at the
    scheme's minimal length."""
    eng = scheme_engine(scheme)
    return SystemParams(n_attrs=d + 1 if eng.QUERIES_CENTRAL else d, d=d, k=k,
                        q=65537, length=eng.subpackets(d))


CORRECTNESS_POINTS = (
    ("het1", SystemParams(n_attrs=3, d=2, k=2, q=65537, length=2)),
    ("het2", SystemParams(n_attrs=4, d=3, k=2, q=65537, length=6)),
    ("dapac", SystemParams(n_attrs=3, d=3, k=2, q=65537, length=3)),
)

PRIVACY_POINTS = SECRECY_POINTS = (
    ("het1", SystemParams(n_attrs=3, d=2, k=2, q=3, length=2)),
    ("dapac", SystemParams(n_attrs=3, d=3, k=2, q=2, length=3)),
    ("het2", SystemParams(n_attrs=4, d=3, k=2, q=2, length=6)),
)

# every scheme defined at each (D, K) of the grid D in {2,3,4} x K in {2,3}
COUNTS_POINTS = tuple((scheme, _grid_params(scheme, d, k))
                      for d in (2, 3, 4) for k in (2, 3) for scheme in scheme_costs(d, k))

# Each suite is its table of built-in (scheme, params) points.
POINTS = {
    "correctness": CORRECTNESS_POINTS,
    "privacy": PRIVACY_POINTS,
    "secrecy": SECRECY_POINTS,
    "counts": COUNTS_POINTS,
}


def _check(name: str, rep: dict, ok: bool = True) -> dict:
    return {"name": name, "pass": rep["pass"] and ok, "report": rep}


def point_checks(suite: str, scheme: str, params: SystemParams, trials: int = 50) -> list[dict]:
    """Every check of `suite` at one (scheme, params) point: the one place
    each suite names its checks and decides their verdicts."""
    if suite == "correctness":
        rep = audit_correctness(scheme, params, trials)
        # only het2 redraws (zero cycle coefficients, about D/q per run)
        return [_check(f"correctness {scheme}", rep,
                       rep["retry_frequency"] <= Fraction(10 * params.d, params.q))]
    if suite == "privacy":
        return [_check(f"privacy {scheme} server {rep['server']}", rep)
                for rep in _privacy_reports(scheme, params, privacy_servers(scheme, params))]
    if suite == "secrecy":
        rep = audit_db_secrecy(scheme, params)
        # the control: shifting the desired message must move its answers
        return [_check(f"secrecy {scheme}", rep, rep["desired_control_tv"] > 0)]
    if suite == "counts":
        return [_check(f"counts {scheme} D={params.d} K={params.k}",
                       audit_counts(scheme, params))]
    raise ConfigError(f"unknown suite {suite!r}")


def run_suite(name: str, points=None, trials: int = 50) -> dict:
    """One suite over its built-in points, or over `points` in their place."""
    return run_suites([name], points, trials)["suites"][0]


def run_suites(names, points=None, trials: int = 50) -> dict:
    """The suites `names`, in order, each over its built-in points or over
    `points` in their place; an unknown name is refused before any runs."""
    names = list(names)
    # compared, not hashed, so a name of any type is refused
    if unknown := [name for name in names if name not in tuple(POINTS)]:
        raise ConfigError(f"unknown suite {unknown[0]!r}")
    reports = []
    for name in names:
        checks = [check for scheme, params in (POINTS[name] if points is None else points)
                  for check in point_checks(name, scheme, params, trials)]
        reports.append({"suite": name, "checks": checks, "pass": all(c["pass"] for c in checks)})
    return {"suites": reports, "pass": all(r["pass"] for r in reports)}


def suite_correctness(trials: int = 50) -> dict:
    return run_suite("correctness", trials=trials)


def suite_privacy() -> dict:
    return run_suite("privacy")


def suite_secrecy() -> dict:
    return run_suite("secrecy")


def suite_counts() -> dict:
    return run_suite("counts")
