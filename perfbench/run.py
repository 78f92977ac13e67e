"""Benchmark command: run one workload, check every output, print metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout; it imports `hetdapac` from the
checkout's `src/`. The load model is a closed loop: one client, one thread,
one process per workload, each operation issued after the previous one
returned.

--trace 0 sets the workload up three times (reporting the median), then
runs whole passes over its operations until --seconds have elapsed and
prints the end-to-end metrics, with times rescaled to a reference core
speed (see speed.py). --trace 1 sets up and runs one pass
untraced, then the same set-up and pass with every layer wrapper
installed, and prints the per-layer metrics, the tracing overhead and
the exact counts; its spans go to .bench_out/spans-<workload>.tsv.

Every output is checked (see workloads.py). The last line of standard
output is one JSON object; any wrong output makes the exit code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPS = 3
TAIL_MIN_SAMPLES = 1000  # below this the tail is the maximum, not p99

IMPORT_PROBE = (
    "import time, speed\n"
    "with speed.SpeedProbe() as probe:\n"
    "    t0 = time.perf_counter()\n"
    "    import hetdapac, hetdapac.audit\n"
    "    t1 = time.perf_counter()\n"
    "print(probe.reference_seconds(t0, t1), t1 - t0)\n"
)


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


if __name__ == "__main__" and not os.path.isfile(os.path.join(SRC, "hetdapac", "__init__.py")):
    fail(f"no hetdapac sources under {SRC}; run from the root of a checkout")
sys.path[:0] = [SRC, HERE]

import tracing  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from workloads import AUDIT_KINDS, WORKLOADS  # noqa: E402

EXACT_LAYER_COUNTS = (
    "wire.upload_symbols", "wire.download_symbols", "harness.attempts",
    "harness.retries", "access.set_calls", "audit.answer_calls",
)
UNITS = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}


def import_seconds() -> tuple[float, float]:
    """Median import time of the package in fresh interpreters: (reference, raw)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, HERE]))
    cmd = [sys.executable, "-c", IMPORT_PROBE]
    subprocess.run(cmd, env=env, check=True, capture_output=True, timeout=120)  # warm bytecode
    runs = [subprocess.run(cmd, env=env, check=True, capture_output=True,
                           text=True, timeout=120).stdout.split()
            for _ in range(SETUP_REPS)]
    return (statistics.median(float(ref) for ref, _ in runs),
            statistics.median(float(raw) for _, raw in runs))


class Outcomes:
    """What the passes of one run did: op timings, failures, exact outputs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.timings: list[tuple[str, float, float, bool]] = []  # kind, start, end, correct
        self.digest = hashlib.sha256()
        self.counts: Counter = Counter()

    def run(self, workload, inputs, index: int, tracer=None):
        for n, op in enumerate(workload.ops(inputs, index)):
            call = op.call
            if tracer is not None:
                tracer.op_id = n
                call = tracer.span(f"op.{op.kind}", call)
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                result = call()
            except Exception:
                self.timings.append((op.kind, t0, time.perf_counter(), False))
                self.failed += 1
                traceback.print_exc()
                continue
            t1 = time.perf_counter()
            problems = op.check(result)
            self.timings.append((op.kind, t0, t1, not problems))
            if problems:
                self.failed += 1
                for p in problems:
                    print(f"perfbench: wrong output: {p}", file=sys.stderr)
            if index == 0:
                text, counts = op.exact(result)
                self.digest.update(f"{op.kind}\n{text}\n".encode())
                self.counts.update(counts)
            del result  # a long retrieval's output must not outlive it into the next call

    def fingerprint_line(self, extra=()) -> str:
        counts = dict(sorted(self.counts.items()))
        counts.update(extra)
        fields = " ".join(f"{k}={v}" for k, v in counts.items())
        return f"fingerprint {self.digest.hexdigest()} {fields}"


def tail(values):
    if len(values) >= TAIL_MIN_SAMPLES:
        return statistics.quantiles(values, n=100)[98], "p99"
    return max(values), "max"


def measure(name: str, seed: int, seconds: float):
    workload = WORKLOADS[name]
    imports, imports_raw = import_seconds()
    setups = []
    inputs = None
    with SpeedProbe() as probe:
        for _ in range(SETUP_REPS):
            inputs = None  # free the previous inputs before drawing the next
            t0 = time.perf_counter()
            inputs = workload.setup(seed)
            setups.append((probe.reference_seconds(t0, time.perf_counter()),
                           time.perf_counter() - t0))
        setup_s = imports + statistics.median(ref for ref, _ in setups)
        setup_raw = imports_raw + statistics.median(raw for _, raw in setups)

        tracing.assert_pristine()
        book = Outcomes()
        start = time.perf_counter()
        index = 0
        while True:
            book.run(workload, inputs, index)
            tracing.assert_pristine()
            index += 1
            if time.perf_counter() - start >= seconds:
                break

    latency = defaultdict(list)
    busy = raw_busy = 0.0
    for kind, t0, t1, ok in book.timings:
        ref = probe.reference_seconds(t0, t1)
        busy += ref
        raw_busy += t1 - t0
        if ok:
            latency[kind].append(ref)
    every = [t for values in latency.values() for t in values]
    print(f"workload {name} seed {seed}: {index} passes, {book.attempted} operations, "
          f"{book.failed} failed; core slowdown {probe.slowdown():.3f} "
          f"(times below at reference speed)")
    print(f"  setup_s = {setup_s:.4f} (import {imports:.4f}, inputs median of "
          f"{SETUP_REPS}); raw {setup_raw:.4f}")
    for kind, values in [("all", every), *latency.items()]:
        if not values:
            continue
        scale, family = (1, "audit_s") if kind in AUDIT_KINDS else (1e3, "retrieval_ms")
        value, label = tail(values)
        print(f"  {'ops' if kind == 'all' else family + '.' + kind} = "
              f"{statistics.median(values) * scale:.4f} median of {len(values)}, "
              f"{label} {value * scale:.4f}")
    if every:
        print(f"  ops_per_s = {len(every) / busy:.4f}; raw {len(every) / raw_busy:.4f}")
    print(f"  failed_frac = {book.failed}/{book.attempted}")
    print(book.fingerprint_line())
    metrics = {}
    if every:
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": len(every) / busy,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    return book, {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}


def plain_pass(name: str, seed: int):
    """Set-up plus pass 0 without tracing: (outcomes, wall seconds)."""
    workload = WORKLOADS[name]
    book = Outcomes()
    t0 = time.perf_counter()
    book.run(workload, workload.setup(seed), 0)
    elapsed = time.perf_counter() - t0
    tracing.assert_pristine()
    return book, elapsed


def traced_pass(name: str, seed: int):
    """Set-up plus pass 0 with every wrapper installed: (outcomes, tracer, wall seconds)."""
    workload = WORKLOADS[name]
    book = Outcomes()
    tracer = tracing.Tracer()
    with tracer:
        t0 = time.perf_counter()
        book.run(workload, workload.setup(seed), 0, tracer)
        elapsed = time.perf_counter() - t0
    return book, tracer, elapsed


def trace(name: str, seed: int):
    plain, untraced = plain_pass(name, seed)
    book, tracer, traced = traced_pass(name, seed)
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"spans-{name}.tsv"))

    layers = tracer.layer_metrics()
    for key in ("pool_assignments", "perturbations", "privacy_enumerated"):
        layers[f"audit.{key}"] = book.counts[key]
    layers["trace.overhead_s"] = traced - untraced
    if book.digest.hexdigest() != plain.digest.hexdigest():
        print("perfbench: traced and untraced passes differ", file=sys.stderr)
        book.failed += 1
    print(f"workload {name} seed {seed}: untraced {untraced:.4f} s, "
          f"traced {traced:.4f} s, {len(tracer.spans)} spans")
    print(book.fingerprint_line({key: layers[key] for key in EXACT_LAYER_COUNTS}))
    metrics = {k: {"value": layers[k], "unit": unit} for k, unit in tracing.PER_LAYER}
    book.attempted += plain.attempted
    book.failed += plain.failed
    return book, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.trace:
        book, metrics = trace(args.workload, args.seed)
    else:
        book, metrics = measure(args.workload, args.seed, args.seconds)
    correct = book.failed == 0 and book.attempted > 0
    print(json.dumps({"correct": correct, "attempted": book.attempted,
                      "failed": book.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
