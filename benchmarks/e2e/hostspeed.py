"""The host-speed probe every timing is scaled by.

On the shared 2-core hosts this benchmark runs on, the same work swings
by 15-25% from one minute to the next, and no statistic taken inside one
run removes that.  So a fixed CPU task that no repository code takes
part in is timed between the steps of every timed phase, and each
step's time is divided by ``factor()`` of the probes around it: timings
read as they would on a host where the probe takes
``PROBE_REFERENCE_S``.  A change to the program moves the work, not the
probe, so it moves the metrics in full.

On an x86_64 host with 2 CPUs under load from other tenants, over 90
alternations of the probe with a cold sweep of 200 fuzzed jobs, scaling
cut the spread (quartile distance over median) of 6-sweep medians from
15% to 4.5%.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

__all__ = ["PROBE_REFERENCE_S", "probe_seconds", "factor"]

# The probe's time on the x86_64-2cpu host the baselines were recorded on.
PROBE_REFERENCE_S = 0.030

_KEYS = np.random.default_rng(0).integers(0, 1 << 20, 200_000)


def probe_seconds() -> float:
    """Median of five timings of a numpy sort plus an interpreter loop,
    the mix of work the workloads do.  The median skips a stray stall
    but, unlike the best timing, still sees a host that is slow
    throughout."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        np.argsort(_KEYS, kind="stable")
        table: dict[int, int] = {}
        for k in range(50_000):
            table[k & 1023] = table.get(k & 1023, 0) + k
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def factor(before: float, after: float) -> float:
    """How much slower than the reference host a step ran, from the
    probes taken just before and just after it."""
    return (before + after) / 2 / PROBE_REFERENCE_S
