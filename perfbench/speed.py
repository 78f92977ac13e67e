"""Reference-speed timing on a host whose cores change speed under load.

On a shared host one core can run this interpreter at half speed for
seconds at a time while its neighbours are busy, so raw wall times of the
same work differ by tens of percent from run to run. While a SpeedProbe is
active, a timer signal runs a fixed pure-Python loop in the main thread
every INTERVAL_S seconds and records how long it took. Between two probes
the core is taken to run at the speed the earlier probe saw (the median of
it and its two neighbours, which damps single-probe jitter); an interval's
reference time is its length scaled by REFERENCE_PROBE_S / probe duration,
with the probes' own time left out. The result is the time the same work
takes on a core that runs the probe loop in REFERENCE_PROBE_S.

The probe costs about 1.5% of the run and touches nothing the program
uses. It calibrates against the interpreter's own speed, so it corrects
for a slower or faster core and never for a change in the program. The
loop stays in the core's caches on purpose. A loop that also walked a
large table tracked the workloads' slowdowns more closely, but the
program's own memory traffic evicted that table between probes, so a
change to the program's footprint would have moved the reference.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time

INTERVAL_S = 0.02
REFERENCE_PROBE_S = 250e-6
PROBE_ROUNDS = 400


def probe_loop() -> int:
    rng = random.Random(1)
    acc = 0
    for i in range(PROBE_ROUNDS):
        acc = (acc + rng.randrange(65537) * i) % 65537
    return acc


class SpeedProbe:
    """Timer-driven speed samples of the current core, as a context manager."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _sample(self, signum=None, frame=None):
        start = time.perf_counter()
        probe_loop()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)

    def __enter__(self):
        self._sample()  # a reading for the start of the first interval
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def reference_seconds(self, t0: float, t1: float) -> float:
        """Reference-speed time of the wall interval [t0, t1), probes excluded."""
        starts, durations = self.starts, self.durations
        k = max(bisect.bisect_right(starts, t0) - 1, 0)
        total = 0.0
        at = t0
        while True:
            end = starts[k + 1] if k + 1 < len(starts) and starts[k + 1] < t1 else t1
            probe_end = starts[k] + durations[k]
            if end > max(at, probe_end):
                typical = statistics.median(durations[max(k - 1, 0):k + 2])
                total += (end - max(at, probe_end)) * REFERENCE_PROBE_S / typical
            if end >= t1:
                return total
            k += 1
            at = end

    def slowdown(self) -> float:
        """Mean probe time over the reference probe time."""
        return sum(self.durations) / len(self.durations) / REFERENCE_PROBE_S
