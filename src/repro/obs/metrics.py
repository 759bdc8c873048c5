"""The metrics registry: counters, gauges, histograms, snapshots.

Before this module each layer kept its own ad-hoc stats --
:class:`~repro.exec.executor.ExecStats` records in the executor,
``hits``/``misses``/``puts`` on the result store, trajectory tuples in
search reports, wall-clock dicts in the timing experiment.  The registry
is the one place those numbers now also flow into, so a whole-run
snapshot can answer "how many references were simulated, at what store
hit rate, at how many sims per second" without stitching per-layer
objects together.

Metrics are **always on**: an increment is one attribute add on a cached
object, far below noise at the chunk/job granularity the hot paths use.
Instrument rates (per-reference, per-access) by incrementing once per
*chunk* with the chunk's count, never inside a reference loop.

Like every per-process singleton here, the registry does not see updates
made inside pool worker processes.  A pool worker records each job into a
fresh registry that travels back with the job's result, and the parent
folds it in with :meth:`MetricsRegistry.merge`, so counters and histogram
observations of a parallel sweep match a serial one.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Any, Callable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_metrics",
    "set_metrics",
    "merge_snapshots",
    "diff_counters",
    "best_of",
    "format_exec_line",
]


class Counter:
    """A monotonically increasing number (int or float)."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, n=1) -> None:
        self.value += n


class Gauge:
    """A last-write-wins value."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def set(self, v) -> None:
        self.value = v


class Histogram:
    """A streaming summary: count, total, min, max, and percentiles.

    Percentiles come from a bounded reservoir (Vitter's algorithm R,
    seeded per-instance so one process's snapshots are reproducible):
    the first :data:`RESERVOIR_SIZE` observations are kept exactly, later
    ones replace a random slot with probability ``size/count``.  At the
    scale the registry sees (thousands of chunk timings per run) the
    reservoir is usually exact; beyond it the quantile error is the
    standard sampling error, which is fine for a p95 on a latency line.
    """

    RESERVOIR_SIZE = 2048

    __slots__ = ("count", "total", "vmin", "vmax", "_sample", "_rng")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.vmin = float("inf")
        self.vmax = float("-inf")
        self._sample: list[float] = []
        self._rng = random.Random(0xC0FFEE)

    def observe(self, v: float) -> None:
        self.count += 1
        self.total += v
        if v < self.vmin:
            self.vmin = v
        if v > self.vmax:
            self.vmax = v
        self._keep(v)

    def merge(self, other: "Histogram") -> None:
        """Fold ``other``'s observations in: count, total, min and max
        exactly, and the reservoir as a uniform sample of both.

        While ``other`` still holds every observation they are observed
        here one by one.  Past its reservoir each of its samples stands
        for ``other.count / RESERVOIR_SIZE`` observations, so the merged
        reservoir draws from the two in proportion to their counts.
        """
        if other.count <= len(other._sample):
            for v in other._sample:
                self.count += 1
                self._keep(v)
        else:
            self._sample = self._draw(other)
            self.count += other.count
        self.total += other.total
        self.vmin = min(self.vmin, other.vmin)
        self.vmax = max(self.vmax, other.vmax)

    def _draw(self, other: "Histogram") -> list[float]:
        """A uniform sample of the union of both histograms' observations:
        each draw picks a side with probability proportional to the
        observations it has left, then an unpicked sample of that side."""
        pools = [list(self._sample), list(other._sample)]
        for pool in pools:
            self._rng.shuffle(pool)
        left = [self.count, other.count]
        merged = []
        for _ in range(min(self.RESERVOIR_SIZE, sum(left))):
            side = 0 if self._rng.randrange(left[0] + left[1]) < left[0] else 1
            merged.append(pools[side].pop())
            left[side] -= 1
        return merged

    def _keep(self, v: float) -> None:
        if len(self._sample) < self.RESERVOIR_SIZE:
            self._sample.append(v)
        else:
            slot = self._rng.randrange(self.count)
            if slot < self.RESERVOIR_SIZE:
                self._sample[slot] = v

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> dict:
        if not self.count:
            return {"count": 0, "total": 0.0, "min": 0.0, "max": 0.0,
                    "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
        ordered = sorted(self._sample)
        n = len(ordered)

        def rank(pct: float) -> float:
            return ordered[max(0, min(n - 1, int(round(pct / 100.0 * (n - 1)))))]

        return {
            "count": self.count,
            "total": self.total,
            "min": self.vmin,
            "max": self.vmax,
            "mean": self.mean,
            "p50": rank(50),
            "p95": rank(95),
            "p99": rank(99),
        }


class MetricsRegistry:
    """Named metrics, created on first use, snapshot-able as plain JSON.

    Lookup is a plain dict ``get`` on the hot path; the lock is only
    taken to create a metric the first time its name appears.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def _get_or_create(self, table: dict, name: str, factory: Callable):
        metric = table.get(name)
        if metric is None:
            with self._lock:
                metric = table.setdefault(name, factory())
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(self._counters, name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(self._gauges, name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get_or_create(self._histograms, name, Histogram)

    def snapshot(self) -> dict[str, Any]:
        """A JSON-able copy: ``{"counters": {...}, "gauges": {...},
        "histograms": {name: {count, total, min, max, mean}}}``.

        Empty sections are omitted, so an untouched registry snapshots
        to ``{}`` (and e.g. benchmark recording skips it cleanly).
        """
        out: dict[str, Any] = {}
        if self._counters:
            out["counters"] = {k: c.value for k, c in sorted(self._counters.items())}
        if self._gauges:
            out["gauges"] = {k: g.value for k, g in sorted(self._gauges.items())}
        if self._histograms:
            out["histograms"] = {
                k: h.summary() for k, h in sorted(self._histograms.items())
            }
        return out

    def merge(self, other: "MetricsRegistry") -> None:
        """Add ``other``'s counters and histogram observations to this
        registry (a pool job's worker-side metrics, into the parent's).
        Gauges are last-write-wins values of one process; they stay."""
        for name, counter in other._counters.items():
            self.counter(name).inc(counter.value)
        for name, hist in other._histograms.items():
            self.histogram(name).merge(hist)

    def __getstate__(self) -> dict:
        # The lock does not pickle; a copy gets its own.
        return {"counters": self._counters, "gauges": self._gauges,
                "histograms": self._histograms}

    def __setstate__(self, state: dict) -> None:
        self.__init__()
        self._counters = state["counters"]
        self._gauges = state["gauges"]
        self._histograms = state["histograms"]

_metrics = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-wide registry every instrumented layer writes to."""
    return _metrics


def set_metrics(registry: MetricsRegistry) -> None:
    """Replace the process-wide registry (tests, isolated sessions)."""
    global _metrics
    _metrics = registry


def merge_snapshots(snapshots) -> dict[str, Any]:
    """Fold :meth:`MetricsRegistry.snapshot` dicts of separate processes
    (the shards of one sweep) into one snapshot.

    Counters add up and a gauge keeps its last value.  A histogram gets
    its exact count, total, min, max and mean; a summary cannot be
    re-ranked, so one that more than one snapshot holds loses its
    percentiles rather than keeping a single source's.
    """
    counters: dict[str, Any] = {}
    gauges: dict[str, Any] = {}
    hists: dict[str, dict] = {}
    for snap in snapshots:
        for name, value in (snap.get("counters") or {}).items():
            counters[name] = counters.get(name, 0) + value
        gauges.update(snap.get("gauges") or {})
        for name, summ in (snap.get("histograms") or {}).items():
            agg = hists.get(name)
            if agg is None or not agg["count"]:
                hists[name] = dict(summ)
                continue
            if not summ["count"]:
                continue
            count = agg["count"] + summ["count"]
            total = agg["total"] + summ["total"]
            hists[name] = {
                "count": count,
                "total": total,
                "min": min(agg["min"], summ["min"]),
                "max": max(agg["max"], summ["max"]),
                "mean": total / count,
            }
    out: dict[str, Any] = {}
    for section, table in (("counters", counters), ("gauges", gauges),
                           ("histograms", hists)):
        if table:
            out[section] = dict(sorted(table.items()))
    return out


def diff_counters(before: dict, after: dict) -> dict:
    """Counter deltas between two :meth:`MetricsRegistry.snapshot` calls.

    Used by the experiments CLI to render a per-experiment ``[exec]``
    line from the global registry: snapshot before, snapshot after,
    subtract.
    """
    b = before.get("counters", {})
    a = after.get("counters", {})
    return {k: v - b.get(k, 0) for k, v in a.items() if v != b.get(k, 0)}


def best_of(fn: Callable[[], Any], repeats: int = 3, name: str | None = None,
            registry: MetricsRegistry | None = None) -> float:
    """Best-of-N wall-clock seconds for ``fn`` (the timing idiom shared by
    the wall-clock experiment and the overhead guards).

    Every repeat is observed into the ``name`` histogram when given, so
    the min/mean/max spread survives into metrics snapshots; the return
    value is the minimum (the conventional noise-resistant estimate).
    """
    hist = None
    if name is not None:
        hist = (registry or get_metrics()).histogram(name)
    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - t0
        if hist is not None:
            hist.observe(elapsed)
        if elapsed < best:
            best = elapsed
    return best


def format_exec_line(
    jobs: int,
    cache_hits: int,
    pooled: int,
    workers: int,
    sim_seconds: float,
    wall_seconds: float,
) -> str:
    """The ``[exec]`` observability line (one format, two producers).

    Both :meth:`repro.exec.executor.ExecStats.format` and the CLI's
    metrics-driven rendering call this, so the line cannot drift between
    the in-object and the registry views.  The format is pinned by CI
    greps (``cached (100%)``); change it deliberately or not at all.
    """
    misses = jobs - cache_hits
    hit_rate = cache_hits / jobs if jobs else 0.0
    parts = [
        f"{jobs} jobs",
        f"{cache_hits} cached ({100.0 * hit_rate:.0f}%)",
        f"{misses} simulated"
        + (f" ({pooled} in pool, workers={workers})" if pooled else ""),
        f"sim {sim_seconds:.2f}s",
        f"wall {wall_seconds:.2f}s",
    ]
    return ", ".join(parts)
