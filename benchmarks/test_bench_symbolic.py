"""Benchmark: the exactness proof -- classify throughput and the speedup
of the predictor's exact levels over simulation.

Every benchmark carries ``group="symbolic"`` so the recorder routes its
rows to ``BENCH_symbolic.json``.  Two questions, answered with numbers
attached as ``extra_info``:

* how fast is classification (the proof the predictor runs before its
  estimate) over the fuzzed workload population, in programs/sec -- it
  is overhead on every prediction, so it must stay cheap;
* how much faster is :func:`~repro.model.predict_job` than the
  vectorized simulator on jobs exact at every level, recorded as
  ``speedup`` for the trend tooling.
"""

from __future__ import annotations

import time

import pytest

from repro.cache.config import CacheConfig, HierarchyConfig
from repro.exec.jobs import SimJob
from repro.experiments.fig9_pad import build_jobs
from repro.fuzz import fuzzed_workloads
from repro.model import predict_job
from repro.symbolic import classify_job, classify_program

pytestmark = pytest.mark.benchmark(group="symbolic")

ROOMY = HierarchyConfig(
    levels=(
        CacheConfig(size=16 * 1024, line_size=32, name="L1"),
        CacheConfig(size=64 * 1024, line_size=64, name="L2"),
    )
)

FUZZ_COUNT = 24


@pytest.fixture(scope="module")
def workloads():
    return fuzzed_workloads(seed=0, count=FUZZ_COUNT)


@pytest.fixture(scope="module")
def quick_jobs():
    return build_jobs(quick=True)


def test_bench_classify_fuzzed(benchmark, workloads):
    """Classification throughput over the fuzz population (roomy hier)."""

    def run():
        return [
            classify_program(program, layout, ROOMY)
            for _, program, layout in workloads
        ]

    verdicts = benchmark(run)
    assert len(verdicts) == FUZZ_COUNT
    stats = getattr(benchmark.stats, "stats", benchmark.stats)
    benchmark.extra_info["programs_per_sec"] = round(FUZZ_COUNT / stats.min, 1)
    benchmark.extra_info["exact_fraction"] = round(
        sum(all(c.exact for c in v) for v in verdicts) / FUZZ_COUNT, 3
    )


def test_bench_classify_capacity_prefilter(benchmark, quick_jobs):
    """Proof cost on jobs the pre-filter rules out without enumerating
    (the common full-size case: answer in microseconds, not milliseconds)."""

    def run():
        return [classify_job(job) for job in quick_jobs]

    verdicts = benchmark(run)
    assert len(verdicts) == len(quick_jobs)
    stats = getattr(benchmark.stats, "stats", benchmark.stats)
    benchmark.extra_info["jobs_per_sec"] = round(len(quick_jobs) / stats.min, 1)


def test_bench_symbolic_vs_sim_speedup(benchmark, workloads):
    """The speedup on exact-classifiable jobs: predict_job against
    job.run() on the fuzzed population's roomy-hierarchy exact subset."""
    jobs = []
    for _, program, layout in workloads:
        job = SimJob(program, layout, ROOMY)
        if all(c.exact for c in classify_job(job)):
            jobs.append(job)
    assert jobs, "expected exact-classifiable fuzzed jobs on the roomy hierarchy"

    def run_predict():
        return [predict_job(job) for job in jobs]

    benchmark(run_predict)
    stats = getattr(benchmark.stats, "stats", benchmark.stats)
    predict_s = stats.min

    t0 = time.perf_counter()
    sims = [job.run() for job in jobs]
    sim_s = time.perf_counter() - t0

    # Record the speedup, and keep the benchmark honest: the counts the
    # timed prediction pass produced must match the simulator bitwise.
    for job, sim in zip(jobs, sims):
        predicted = predict_job(job)
        assert predicted.exact
        for pred_lv, sim_lv in zip(predicted.result.levels, sim.levels):
            assert pred_lv.misses == sim_lv.misses
    benchmark.extra_info["jobs"] = len(jobs)
    benchmark.extra_info["speedup"] = round(sim_s / predict_s, 2)
