"""The benchmark's four workloads: inputs from a seed, the operations of one
pass, and the correctness gate every operation's output must pass.

A workload is set up once per run (stores, vectors, protocol seeds, mix
plans, all derived from the workload seed) and then executed pass after
pass. A pass is a fixed, ordered list of operations; an operation is one
call into the public API (`run_protocol`, `run_time_shared` or an
`audit.suite_*`). Every call goes through a module attribute looked up at
call time, so the tracer's wrappers see it when they are installed.

Workloads (q = 65537 except `audit`, which uses the suites' own points):

  sweep  every attribute vector x 50 trials at the acceptance example
         points (het1, het2, dapac) and the executed mix point
  wide   N=7, D=6, K=4, one vector, each scheme at its minimal length
  long   N=4, D=3, K=4, L=60000, all four retrievals on one shared store
  audit  suite_privacy, suite_secrecy and suite_counts
"""

from __future__ import annotations

import itertools
import json
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable

import hetdapac
import hetdapac.audit

Q = 65537
MIX_LAMBDA = Fraction(1, 2)
SWEEP_TRIALS = 50
RETRIEVAL_KINDS = ("het1", "het2", "dapac", "mix")
AUDIT_KINDS = ("privacy", "secrecy", "counts")

SWEEP_POINTS = (
    ("het1", hetdapac.SystemParams(n_attrs=3, d=2, k=2, q=Q, length=2)),
    ("het2", hetdapac.SystemParams(n_attrs=4, d=3, k=2, q=Q, length=6)),
    ("dapac", hetdapac.SystemParams(n_attrs=3, d=3, k=2, q=Q, length=3)),
    ("mix", hetdapac.SystemParams(n_attrs=3, d=2, k=2, q=Q, length=12)),
)
WIDE_LENGTHS = {"het1": 6, "het2": 21, "dapac": 15, "mix": 60}
WIDE_SHAPE = {"n_attrs": 7, "d": 6, "k": 4, "q": Q}
LONG_PARAMS = hetdapac.SystemParams(n_attrs=4, d=3, k=4, q=Q, length=60000)


@dataclass(frozen=True)
class Op:
    """One timed call plus what the benchmark does with its output."""

    kind: str
    call: Callable[[], object]
    check: Callable[[object], list]             # problems; empty when correct
    exact: Callable[[object], tuple[str, Counter]]  # fingerprint text, counts


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)


# ---------------------------------------------------------------- retrievals

def check_retrieval(kind, params, v_star, store, result) -> list:
    """The decoded message, and every exact metric against its closed form.

    The closed forms describe one attempt. A het2 decode retry redraws the
    queries and downloads again from the same pool, so downloads scale
    with the attempt count and the rate divides by it; the load ratio and
    the randomness counts do not change.
    """
    msg, _, metrics = result
    problems = []
    if msg != store[hetdapac.message_index(v_star, params)]:
        problems.append(f"{kind} {v_star}: decoded message differs from the store")
    if kind == "mix":
        expected = {
            "rate": hetdapac.rate_of_lambda(MIX_LAMBDA, params.k),
            "load_ratio": hetdapac.load_ratio_of_lambda(MIX_LAMBDA, params.d, params.k),
        }
        measured = {"rate": metrics["rate"], "load_ratio": metrics["load_ratio"]}
    else:
        forms = hetdapac.audit.closed_forms(kind, params)
        attempts = metrics["attempts"]
        expected = {
            "rate": forms["rate"] / attempts,
            "load_ratio": forms["load_ratio"],
            "download_dedicated": {forms["download_dedicated"] * attempts},
            "download_central": forms["download_central"] * attempts,
            "allocated_symbols": forms["allocated_symbols"],
            "consumed_symbols": forms["consumed_symbols"],
        }
        measured = {
            "rate": metrics["rate"],
            "load_ratio": metrics["load_ratio"],
            "download_dedicated": set(metrics["download_dedicated"].values()),
            "download_central": metrics["download_central"],
            "allocated_symbols": metrics["randomness_allocated_symbols"],
            "consumed_symbols": metrics["randomness_consumed_symbols"],
        }
    for name, want in expected.items():
        if measured[name] != want:
            problems.append(f"{kind} {v_star}: {name} is {measured[name]}, "
                            f"closed form {want}")
    return problems


def exact_retrieval(result) -> tuple[str, Counter]:
    _, transcript, metrics = result
    counts = Counter(attempts=metrics["attempts"], retries=metrics["retries"])
    for rec in transcript.records:
        if rec.kind == "query":
            counts["upload_symbols"] += rec.symbols
        elif rec.kind == "answer":
            counts["download_symbols"] += rec.symbols
    return transcript.dumps() + canonical(metrics), counts


def retrieval_op(kind, params, v_star, store, seed, plan=None) -> Op:
    if kind == "mix":
        call = partial(_run_mix, plan, v_star, store, seed)
    else:
        call = partial(_run_pure, kind, params, v_star, store, seed)
    return Op(kind, call, partial(check_retrieval, kind, params, v_star, store),
              exact_retrieval)


def _run_pure(kind, params, v_star, store, seed):
    return hetdapac.run_protocol(kind, params, v_star, store, seed)


def _run_mix(plan, v_star, store, seed):
    return hetdapac.run_time_shared(plan, v_star, store, seed)


def _seeds(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench/{workload}/{seed}")


class Retrievals:
    """A pass retrieves every set-up item once, with fresh protocol seeds."""

    def ops(self, items, index: int):
        for kind, params, v_star, store, seed, plan in items:
            yield retrieval_op(kind, params, v_star, store, seed + index, plan)


# ---------------------------------------------------------------- sweep

class Sweep(Retrievals):
    """Thousands of millisecond retrievals; fixed per-call costs dominate."""

    name = "sweep"

    def setup(self, seed: int):
        rng = _seeds(self.name, seed)
        items = []
        for kind, params in SWEEP_POINTS:
            plan = hetdapac.plan_mix(params, MIX_LAMBDA) if kind == "mix" else None
            for v_star in itertools.product(range(1, params.k + 1),
                                            repeat=params.n_attrs):
                for _ in range(SWEEP_TRIALS):
                    store = hetdapac.random_store(params, rng.getrandbits(63))
                    items.append((kind, params, v_star, store,
                                  rng.getrandbits(63), plan))
        return items


# ---------------------------------------------------------------- wide, long

class Wide(Retrievals):
    """K^D = 4096 participating messages, payloads of a few symbols."""

    name = "wide"

    def setup(self, seed: int):
        rng = _seeds(self.name, seed)
        shape = WIDE_SHAPE
        v_star = tuple(rng.randrange(1, shape["k"] + 1)
                       for _ in range(shape["n_attrs"]))
        items = []
        for kind in RETRIEVAL_KINDS:
            params = hetdapac.SystemParams(length=WIDE_LENGTHS[kind], **shape)
            plan = hetdapac.plan_mix(params, MIX_LAMBDA) if kind == "mix" else None
            store = hetdapac.random_store(params, rng.getrandbits(63))
            items.append((kind, params, v_star, store, rng.getrandbits(63), plan))
        return items


class Long(Retrievals):
    """64 participating messages with sub-packets of 10k-20k symbols."""

    name = "long"

    def setup(self, seed: int):
        rng = _seeds(self.name, seed)
        params = LONG_PARAMS
        v_star = tuple(rng.randrange(1, params.k + 1) for _ in range(params.n_attrs))
        store = hetdapac.random_store(params, rng.getrandbits(63))
        plan = hetdapac.plan_mix(params, MIX_LAMBDA)
        return [(kind, params, v_star, store, rng.getrandbits(63),
                 plan if kind == "mix" else None) for kind in RETRIEVAL_KINDS]


# ---------------------------------------------------------------- audit

def check_audit(kind, report) -> list:
    problems = [f"{kind}: {c['name']} failed" for c in report["checks"] if not c["pass"]]
    if kind == "secrecy":
        problems += [f"secrecy: {c['name']} has no desired-message control"
                     for c in report["checks"]
                     if not c["report"]["desired_control_tv"] > 0]
    if not report["pass"] and not problems:
        problems.append(f"{kind}: suite reports failure")
    return problems


def exact_audit(report) -> tuple[str, Counter]:
    counts = Counter()
    for c in report["checks"]:
        rep = c["report"]
        counts["pool_assignments"] += rep.get("pool_assignments", 0)
        counts["perturbations"] += rep.get("perturbations", 0)
        counts["privacy_enumerated"] += rep.get("enumerated", 0)
    return canonical(report), counts


def _suite(kind):
    return getattr(hetdapac.audit, f"suite_{kind}")()


class Audit:
    """The enumeration layer: the answer path on 1-6-symbol payloads."""

    name = "audit"

    def setup(self, seed: int):
        return list(AUDIT_KINDS)  # the suites carry their own fixed points

    def ops(self, kinds, index: int):
        for kind in kinds:
            yield Op(kind, partial(_suite, kind), partial(check_audit, kind),
                     exact_audit)


WORKLOADS = {w.name: w for w in (Sweep(), Wide(), Long(), Audit())}
