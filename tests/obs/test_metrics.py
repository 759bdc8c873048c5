"""Metrics registry: primitives, snapshots, diffs, and the [exec] line."""

from __future__ import annotations

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    best_of,
    diff_counters,
    format_exec_line,
    get_metrics,
    set_metrics,
)


class TestPrimitives:
    def test_counter_accumulates(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_gauge_last_write_wins(self):
        g = Gauge()
        g.set(3)
        g.set(1.5)
        assert g.value == 1.5

    def test_histogram_summary(self):
        h = Histogram()
        for v in (0.1, 0.3, 0.2):
            h.observe(v)
        s = h.summary()
        assert s["count"] == 3
        assert s["min"] == pytest.approx(0.1)
        assert s["max"] == pytest.approx(0.3)
        assert s["mean"] == pytest.approx(0.2)

    def test_empty_histogram_summary_is_finite(self):
        s = Histogram().summary()
        assert s == {"count": 0, "total": 0.0, "min": 0.0, "max": 0.0,
                     "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        m = MetricsRegistry()
        assert m.counter("a") is m.counter("a")
        assert m.histogram("h") is m.histogram("h")

    def test_snapshot_shape(self):
        m = MetricsRegistry()
        m.counter("jobs").inc(3)
        m.gauge("workers").set(2)
        m.histogram("secs").observe(0.5)
        snap = m.snapshot()
        assert snap["counters"] == {"jobs": 3}
        assert snap["gauges"] == {"workers": 2}
        assert snap["histograms"]["secs"]["count"] == 1

    def test_untouched_registry_snapshots_empty(self):
        assert MetricsRegistry().snapshot() == {}

    def test_reset_metrics_installs_fresh_global(self):
        get_metrics().counter("x").inc()
        fresh = MetricsRegistry()
        set_metrics(fresh)
        assert get_metrics() is fresh
        assert fresh.snapshot() == {}


class TestMerge:
    """A pool worker's per-job registry folds into the parent's."""

    def test_registry_merge_adds_counters_and_observations(self):
        import pickle

        parent, worker = MetricsRegistry(), MetricsRegistry()
        parent.counter("cache.refs").inc(10)
        parent.histogram("cache.chunk_seconds").observe(0.5)
        worker.counter("cache.refs").inc(5)
        worker.counter("cache.mru_elided").inc(2)
        for v in (0.1, 0.9):
            worker.histogram("cache.chunk_seconds").observe(v)
        worker.gauge("exec.workers").set(7)
        parent.merge(pickle.loads(pickle.dumps(worker)))
        snap = parent.snapshot()
        assert snap["counters"] == {"cache.mru_elided": 2, "cache.refs": 15}
        assert "gauges" not in snap
        hist = snap["histograms"]["cache.chunk_seconds"]
        assert hist["count"] == 3
        assert hist["total"] == pytest.approx(1.5)
        assert (hist["min"], hist["max"]) == (0.1, 0.9)

    def test_histogram_merge_beyond_the_reservoir_keeps_exact_totals(self):
        big, into = Histogram(), Histogram()
        n = Histogram.RESERVOIR_SIZE + 100
        for v in range(n):
            big.observe(float(v))
        into.merge(big)
        s = into.summary()
        assert s["count"] == n
        assert s["total"] == pytest.approx(sum(range(n)))
        assert (s["min"], s["max"]) == (0.0, float(n - 1))
        assert len(into._sample) == Histogram.RESERVOIR_SIZE

    def test_merged_percentiles_weigh_each_side_by_its_count(self):
        """A reservoir past its size stands for all its observations: 20k
        values in [0, 1) merged with 60k in [1, 2) put the median at ~1.33,
        as observing all 80k serially does."""
        small = [i / 20_000 for i in range(20_000)]
        large = [1 + i / 60_000 for i in range(60_000)]
        serial, merged, other = Histogram(), Histogram(), Histogram()
        for v in small + large:
            serial.observe(v)
        for v in small:
            merged.observe(v)
        for v in large:
            other.observe(v)
        merged.merge(other)
        want, got = serial.summary(), merged.summary()
        assert got["count"] == want["count"] == 80_000
        assert len(merged._sample) == Histogram.RESERVOIR_SIZE
        for pct in ("p50", "p95"):
            assert got[pct] == pytest.approx(want[pct], abs=0.05), pct
        assert got["p50"] == pytest.approx(4 / 3, abs=0.05)


class TestDiffCounters:
    def test_deltas_only(self):
        m = MetricsRegistry()
        m.counter("a").inc(2)
        before = m.snapshot()
        m.counter("a").inc(3)
        m.counter("b").inc(1)
        assert diff_counters(before, m.snapshot()) == {"a": 3, "b": 1}

    def test_unchanged_counters_are_omitted(self):
        m = MetricsRegistry()
        m.counter("a").inc(2)
        snap = m.snapshot()
        assert diff_counters(snap, snap) == {}

    def test_empty_snapshots(self):
        assert diff_counters({}, {}) == {}


class TestBestOf:
    def test_returns_minimum_and_observes_each_repeat(self):
        m = MetricsRegistry()
        calls = []
        best = best_of(lambda: calls.append(1), repeats=4,
                       name="t", registry=m)
        assert len(calls) == 4
        h = m.histogram("t")
        assert h.count == 4
        assert best == pytest.approx(h.vmin)
        assert best >= 0.0

    def test_no_name_skips_registry(self):
        m = MetricsRegistry()
        best_of(lambda: None, repeats=2, registry=m)
        assert m.snapshot() == {}


class TestFormatExecLine:
    """The [exec] line format is pinned byte-for-byte (CI greps it)."""

    def test_mixed_run(self):
        line = format_exec_line(jobs=6, cache_hits=0, pooled=6, workers=2,
                                sim_seconds=0.29, wall_seconds=0.18)
        assert line == ("6 jobs, 0 cached (0%), 6 simulated "
                        "(6 in pool, workers=2), sim 0.29s, wall 0.18s")

    def test_fully_cached_run(self):
        line = format_exec_line(jobs=72, cache_hits=72, pooled=0, workers=2,
                                sim_seconds=0.0, wall_seconds=0.03)
        assert "72 cached (100%)" in line
        assert "in pool" not in line  # nothing simulated -> no pool clause

    def test_empty_run(self):
        line = format_exec_line(jobs=0, cache_hits=0, pooled=0, workers=1,
                                sim_seconds=0.0, wall_seconds=0.0)
        assert line.startswith("0 jobs, 0 cached (0%), 0 simulated")
