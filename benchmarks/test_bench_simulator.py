"""Microbenchmarks: simulator and trace-generator throughput.

These are the substrate hot paths every figure runs through; tracking
them catches performance regressions that would make the full-size
experiments impractical.  Every benchmark carries ``group="sim"`` so the
recorder routes its row to ``BENCH_sim.json``, and records its
throughput as ``refs_per_sec`` in ``extra_info`` -- the metric
``benchmarks/trend.py`` gates against the committed baseline.
"""

import numpy as np
import pytest

from repro import DataLayout, ultrasparc_i
from repro.cache.config import LineChunk
from repro.cache.direct import miss_mask_direct
from repro.cache.streaming import StreamingHierarchy
from repro.fuzz import FuzzConfig, fuzzed_workloads
from repro.obs.metrics import MetricsRegistry, get_metrics, set_metrics
from repro.obs.tracer import start_tracing, stop_tracing
from repro.kernels import expl, jacobi, linpackd
from repro.trace.generator import (
    generate_trace,
    program_line_chunks,
    program_trace_chunks,
)

pytestmark = pytest.mark.benchmark(group="sim")

HIER = ultrasparc_i()


def _refs_per_sec(benchmark, n: int) -> None:
    stats = benchmark.stats
    stats = getattr(stats, "stats", stats)
    benchmark.extra_info["refs_per_sec"] = round(n / stats.min)


@pytest.fixture(scope="module")
def random_trace():
    rng = np.random.default_rng(123)
    return rng.integers(0, 1 << 22, size=2_000_000).astype(np.int64)


def test_bench_direct_mapped_2m_refs(benchmark, random_trace):
    misses = benchmark(miss_mask_direct, random_trace, HIER.l1.size, HIER.l1.line_size)
    assert misses.sum() > 0
    _refs_per_sec(benchmark, random_trace.size)


def test_bench_hierarchy_streaming(benchmark, random_trace):
    def run():
        sim = StreamingHierarchy(HIER)
        for i in range(0, random_trace.size, 500_000):
            sim.feed(LineChunk.from_addresses(random_trace[i : i + 500_000], HIER))
        return sim.result()

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.total_refs == random_trace.size
    _refs_per_sec(benchmark, random_trace.size)


def test_bench_trace_generation_jacobi256(benchmark):
    prog = jacobi.build(256)
    lay = DataLayout.sequential(prog)
    trace = benchmark(generate_trace, prog, lay)
    assert trace.size == prog.total_refs()
    _refs_per_sec(benchmark, trace.size)


def test_bench_trace_generation_triangular(benchmark):
    """Row enumeration, small-row batches and big-row blocks: full-size
    LINPACKD's three triangular nests plus the first 30 programs of the
    repository benchmark's fuzzed population (triangular, ``min``/``max``
    and rectangular nests of every size).  A round takes ~0.13 s, and the
    best of five cold rounds swung wider than the trend gate's 30% band
    on a shared host, so one warmup round and the best of 20."""
    lu = linpackd.build()
    config = FuzzConfig(max_refs=200_000, max_trip=96)
    cases = [(lu, DataLayout.sequential(lu))] + [
        (prog, lay) for _, prog, lay in fuzzed_workloads(0, 30, config)
    ]

    def run():
        return sum(
            chunk.size for prog, lay in cases
            for chunk in program_trace_chunks(prog, lay)
        )

    refs = benchmark.pedantic(run, rounds=20, iterations=1, warmup_rounds=1)
    assert refs == sum(prog.total_refs() for prog, _ in cases)
    _refs_per_sec(benchmark, refs)


def test_bench_end_to_end_expl192(benchmark):
    """Trace generation and the hierarchy, as a job runs them: line
    chunks cut for the hierarchy."""
    prog = expl.build(192)
    lay = DataLayout.sequential(prog)

    def run():
        sim = StreamingHierarchy(HIER)
        sim.feed_all(program_line_chunks(prog, lay, HIER))
        return sim.result()

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.total_refs == prog.total_refs()
    _refs_per_sec(benchmark, result.total_refs)


def _fig9_expl_l1opt():
    """The full-size Figure 9 expl "L1 Opt" job (12M refs)."""
    from repro.experiments.fig9_pad import build_jobs

    (job,) = [j for j in build_jobs(programs=["expl"]) if j.tag[1] == "L1 Opt"]
    return job


def test_bench_line_chunks_fig9_expl_l1opt(benchmark):
    """The trace layer alone on the full-size Figure 9 expl "L1 Opt"
    job: its line chunks, cut for the job's hierarchy without the L1
    hits the generator drops (refs per second of references the chunks
    stand for)."""
    job = _fig9_expl_l1opt()

    def run():
        return sum(len(chunk) for chunk in job.chunks())

    refs = benchmark.pedantic(run, rounds=5, iterations=1, warmup_rounds=1)
    assert refs == job.program.total_refs()
    _refs_per_sec(benchmark, refs)


def test_bench_hierarchy_levels_fig9_expl_l1opt(benchmark):
    """The full-size Figure 9 expl "L1 Opt" job: the hierarchy on
    pre-generated line chunks, cut for the job's hierarchy, with L1 and
    L2 throughput from the per-level chunk timings of the best of three
    traced passes and the share of L1 accesses the generator dropped as
    conflict-free MRU hits (never built, still counted as L1 hits)."""
    job = _fig9_expl_l1opt()
    chunks = list(job.chunks())

    def run():
        return StreamingHierarchy(job.hierarchy).feed_all(chunks).result()

    # Traced passes, each into a registry of its own: per-level seconds
    # (the best of three) and the dropped-hit count of exactly one run.
    previous = get_metrics()
    seconds = {cfg.name: float("inf") for cfg in job.hierarchy}
    try:
        for _ in range(3):
            metrics = MetricsRegistry()
            set_metrics(metrics)
            start_tracing()
            result = run()
            stop_tracing()
            for name in seconds:
                hist = metrics.histogram(f"cache.{name}.chunk_seconds")
                seconds[name] = min(seconds[name], hist.total)
    finally:
        stop_tracing()
        set_metrics(previous)
    dropped = metrics.counter("cache.mru_elided").value

    assert benchmark.pedantic(run, rounds=5, iterations=1) == result
    l1, l2 = result.levels
    _refs_per_sec(benchmark, result.total_refs)
    benchmark.extra_info["l1_refs_per_sec"] = round(l1.accesses / seconds["L1"])
    benchmark.extra_info["l2_refs_per_sec"] = round(l2.accesses / seconds["L2"])
    benchmark.extra_info["elided_fraction"] = round(dropped / l1.accesses, 4)
    assert 0 < dropped <= l1.accesses - l1.misses
