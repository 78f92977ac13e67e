"""Acceptance gate: ten end-to-end criteria, each with its own time budget.

Every test prints one PASS line with the measured wall time; a failed
assertion (or a blown budget) fails that criterion and nothing else.
Budgets are generous on purpose: they catch accidental exponential
blowups, not constant-factor noise.
"""

from __future__ import annotations

import csv
import time
from fractions import Fraction

from hetdapac import (
    SystemParams,
    load_ratio_of_lambda,
    message_index,
    plan_mix,
    random_store,
    rate_of_lambda,
    rate_of_load,
    run_protocol,
    run_time_shared,
)
from hetdapac import audit
from hetdapac.cli import main as cli_main

F = Fraction


class Budget:
    """Context manager that fails the test if the block runs too long."""

    def __init__(self, seconds: float):
        self.limit = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        if exc[0] is None:
            assert self.elapsed < self.limit, (
                f"budget exceeded: {self.elapsed:.2f}s >= {self.limit}s")
        return False

    def line(self, n: int, text: str):
        print(f"PASS criterion-{n}: {text} [{self.elapsed:.2f}s < {self.limit:g}s]")


def single_run(scheme, params, v_star, seed=0):
    store = random_store(params, seed)
    msg, transcript, metrics = run_protocol(scheme, params, v_star, store, seed)
    assert msg == store[message_index(v_star, params)]
    return metrics


def test_criterion_01_het1_example_point():
    with Budget(1.0) as b:
        params = SystemParams(n_attrs=3, d=2, k=2, q=65537, length=2)
        m = single_run("het1", params, (1, 2, 2))
        assert m["download_dedicated"] == {1: 1, 2: 1}
        assert m["download_central"] == 4
        assert m["download_total"] == 6
        assert m["rate"] == F(1, 3)
        assert m["load_ratio"] == F(1, 4)
        assert m["randomness_consumed_symbols"] == 4
    b.line(1, "het1 (3,2,2) L=2 downloads 1+1+4, rate 1/3, load 1/4, 4 consumed")


def test_criterion_02_het2_example_point():
    with Budget(1.0) as b:
        params = SystemParams(n_attrs=4, d=3, k=2, q=65537, length=6)
        m = single_run("het2", params, (1, 2, 2, 1))
        assert m["download_total"] == 18
        assert m["download_dedicated"] == {1: 4, 2: 4, 3: 4}
        assert m["download_central"] == 6
        assert m["rate"] == F(1, 3)
        assert m["load_ratio"] == F(2, 3)
        assert m["randomness_consumed_symbols"] == 12
        assert m["randomness_allocated_symbols"] == 12
    b.line(2, "het2 (4,3,2) L=6 downloads 18, rate 1/3, load 2/3, 12 randomness")


def test_criterion_03_dapac_example_point():
    with Budget(1.0) as b:
        params = SystemParams(n_attrs=3, d=3, k=2, q=65537, length=3)
        m = single_run("dapac", params, (2, 1, 2))
        assert m["download_total"] == 12
        assert m["download_dedicated"] == {1: 4, 2: 4, 3: 4}
        assert m["download_central"] == 0
        assert m["rate"] == F(1, 4)
        assert m["randomness_allocated_symbols"] == 12
        assert m["randomness_consumed_symbols"] == 9
    b.line(3, "dapac (3,2) L=3 downloads 12, rate 1/4, 9 of 12 symbols consumed")


def test_criterion_04_closed_forms_grid():
    with Budget(30.0) as b:
        report = audit.suite_counts()
        assert report["pass"]
        assert len(report["checks"]) == 16
        dapac_checks = [c for c in report["checks"]
                        if c["name"].startswith("counts dapac")]
        assert len(dapac_checks) == 6
        for check in dapac_checks:
            p = check["report"]["params"]
            alloc = next(f for f in check["report"]["checks"]
                         if f["name"] == "allocated_symbols")
            assert alloc["measured"] == p.k ** 2 * p.length == alloc["expected"]
    b.line(4, "16/16 closed-form checks over D in {2,3,4} x K in {2,3}")


def test_criterion_05_mix_algebra_and_executed_run():
    with Budget(5.0) as b:
        assert rate_of_lambda(F(3, 7), k=2) == F(7, 24)
        assert load_ratio_of_lambda(F(3, 7), d=3, k=2) == F(2, 3)
        assert rate_of_load(F(2, 3), d=3, k=2) == F(7, 24)

        params = SystemParams(n_attrs=3, d=2, k=2, q=65537, length=12)
        lam, seed = F(1, 2), 6
        mix = plan_mix(params, lam)
        store = random_store(params, seed)
        v_star = (2, 1, 2)
        msg, _, metrics = run_time_shared(mix, v_star, store, seed)
        assert msg == store[message_index(v_star, params)]
        per_dedicated = ((2 * params.k - 1) * lam + 1) * params.length / params.d
        central = (1 - lam) * params.k * params.length
        assert all(F(v) == per_dedicated
                   for v in metrics["download_dedicated"].values())
        assert F(metrics["download_central"]) == central
        assert metrics["rate"] == rate_of_lambda(lam, params.k)
        assert metrics["load_ratio"] == load_ratio_of_lambda(lam, params.d, params.k)
    b.line(5, "R(3/7)=7/24 at load 2/3; executed lambda=1/2 mix matches both "
              "download formulas (15 per dedicated, 12 central)")


def test_criterion_06_timeshare_gap_at_het2_corner():
    with Budget(1.0) as b:
        for d, k in ((3, 2), (4, 3)):
            ell = F(d - 1, d)
            pure_het2 = F(d + 1, 2 * k * d)
            gap = pure_het2 - rate_of_load(ell, d, k)
            assert gap == F(1, 2 * k * k * d)
    b.line(6, "het1/dapac time sharing sits exactly 1/(2K^2 D) below het2 "
              "at (3,2) and (4,3)")


def test_criterion_07_correctness_sweep():
    with Budget(120.0) as b:
        report = audit.suite_correctness(trials=50)
        assert report["pass"]
        total_runs = 0
        for check in report["checks"]:
            rep = check["report"]
            assert rep["failures"] == 0
            total_runs += rep["runs"]
            if check["name"].endswith("het2"):
                assert rep["retry_frequency"] <= F(30, 65537)
        assert total_runs == (8 + 16 + 8) * 50
    b.line(7, f"0 decode failures in {total_runs} runs (all v* x 50 seeds, "
              "3 schemes); het2 retry frequency within 10D/q")


def test_criterion_08_attribute_privacy_exact():
    with Budget(180.0) as b:
        report = audit.suite_privacy()
        assert report["pass"]
        assert len(report["checks"]) == 10  # 3 + 3 + 4 servers
        for check in report["checks"]:
            assert check["report"]["max_tv"] == 0
    b.line(8, "max TV 0 across every server view pair: het1 (3,2,2) q=3, "
              "dapac (3,2) q=2, het2 (4,3,2) q=2")


def test_criterion_09_database_secrecy_exact():
    with Budget(180.0) as b:
        report = audit.suite_secrecy()
        assert report["pass"]
        for check in report["checks"]:
            rep = check["report"]
            assert rep["max_tv"] == 0
            assert rep["desired_control_tv"] == 1
            assert rep["pool_assignments"] > 1
    b.line(9, "max TV 0 over all pool assignments at all three example "
              "points; desired-message control flips to TV 1")


def test_criterion_10_tradeoff_curve_csv(tmp_path):
    with Budget(5.0) as b:
        out = tmp_path / "curve.csv"
        assert cli_main(["curve", "--d", "4", "--k", "3",
                         "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        rows = list(csv.DictReader(lines[1:]))
        anchors = {r["lambda_or_mix"]: r for r in rows[:3]}
        expect = {"het1": ("1/12", "1/4"), "het2": ("3/4", "5/24"),
                  "dapac": ("inf", "1/6")}
        for tag, (load, rate) in expect.items():
            assert anchors[tag]["load_ratio_exact"] == load
            assert anchors[tag]["rate_frontier_exact"] == rate
        loads, strict = [], False
        for row in rows:
            ts = F(row["rate_timeshare_exact"])
            fr = F(row["rate_frontier_exact"])
            assert fr >= ts
            strict = strict or fr > ts
            if row["load_ratio_exact"] != "inf":
                loads.append(F(row["load_ratio_exact"]))
        assert strict  # het2 segment beats plain time sharing in the interior
        assert loads and max(loads) == F(67, 12)  # lambda = 11/12 grid row
    b.line(10, "curve(4,3) anchors (1/12,1/4), (3/4,5/24), (inf,1/6); "
               "frontier weakly dominates time sharing on every row")
