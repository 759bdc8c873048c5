"""Benchmark: the sweep executor -- pool reuse, warm stores, scaling.

Every benchmark carries ``group="exec"`` so the recorder routes its rows
to ``BENCH_exec.json``.  The questions, answered with numbers attached
as ``extra_info``:

* how much does the **persistent pool** buy a multi-round driver (the
  autotuner's executor pattern: one executor, many small ``run()``
  calls) over the old spin-a-pool-per-run behaviour -- recorded as
  ``pool_reuse_speedup``;
* how fast is a **warm sweep** (a fresh store handle loads the store's
  log once, then serves every job from its hot tier) against the cold
  run that populated it -- recorded as ``warm_vs_cold_speedup``;
* what a cold sweep's **store writes** cost: 300 interleaved
  miss-then-``put`` calls into a fresh store -- recorded as
  ``us_per_put``;
* how sweep wall time behaves across **worker counts** (1/2/4), so
  scheduler regressions show up as a timing trend, not an anecdote;
* what **job keying** costs at first sight: the fuzzed 100-program x
  3-hierarchy population keyed on freshly unpickled objects, so only
  reuse inside the sweep (one program, three hierarchies) hits the key
  memo -- recorded as ``keys_per_sec`` and ``us_per_job``.
"""

from __future__ import annotations

import itertools
import pickle
import time

import pytest

from repro.cache.stats import LevelStats, SimulationResult
from repro.exec.executor import SweepExecutor
from repro.exec.jobs import SimJob
from repro.exec.store import ResultStore
from repro.experiments.ext_symbolic import CROSSVAL_HIERARCHIES
from repro.experiments.fig9_pad import build_jobs
from repro.fuzz import FuzzConfig, fuzzed_workloads
from tests.exec.test_executor import job_for

pytestmark = pytest.mark.benchmark(group="exec")

#: The autotuner shape: many small rounds through one executor.
ROUND_SIZES = [(48 + 4 * r, 52 + 4 * r, 56 + 4 * r) for r in range(8)]


@pytest.fixture(scope="module")
def round_jobs():
    return [[job_for(n) for n in sizes] for sizes in ROUND_SIZES]


@pytest.fixture(scope="module")
def sweep_jobs():
    return build_jobs(quick=True)


def test_bench_pool_reuse_multiround(benchmark, round_jobs):
    """One persistent pool across all rounds vs a fresh pool per round
    (the pre-scheduler executor's behaviour, emulated by closing the
    pool after every run)."""

    def persistent():
        with SweepExecutor(workers=2) as ex:
            for jobs in round_jobs:
                ex.run(jobs)
            return ex.pool().spinups

    spinups = benchmark.pedantic(persistent, rounds=2, iterations=1,
                                 warmup_rounds=0)
    assert spinups == 1, "persistent executor must reuse its pool"

    t0 = time.perf_counter()
    for jobs in round_jobs:
        with SweepExecutor(workers=2) as ex:
            ex.run(jobs)
    fresh_pools_s = time.perf_counter() - t0

    stats = getattr(benchmark.stats, "stats", benchmark.stats)
    benchmark.extra_info["rounds"] = len(round_jobs)
    benchmark.extra_info["fresh_pools_s"] = round(fresh_pools_s, 4)
    benchmark.extra_info["pool_reuse_speedup"] = round(
        fresh_pools_s / stats.min, 2
    )


def test_bench_warm_sweep_manifest_scan(benchmark, sweep_jobs, tmp_path):
    """A fully-warm sweep through a fresh store instance: the first miss
    reads the whole log once, every other lookup is a hot-tier hit."""
    store_root = tmp_path / "store"
    t0 = time.perf_counter()
    with SweepExecutor(workers=1, store=ResultStore(store_root)) as ex:
        ex.run(sweep_jobs)
    cold_s = time.perf_counter() - t0

    def warm():
        # A fresh instance per round: the hot tier starts empty, so the
        # round pays exactly one log read (the cross-process shape).
        ex = SweepExecutor(workers=1, store=ResultStore(store_root))
        ex.run(sweep_jobs)
        return ex.stats

    stats_out = benchmark(warm)
    assert stats_out.hit_rate == 1.0, "warm sweep must be fully cached"
    stats = getattr(benchmark.stats, "stats", benchmark.stats)
    benchmark.extra_info["jobs"] = len(sweep_jobs)
    benchmark.extra_info["cold_s"] = round(cold_s, 4)
    benchmark.extra_info["warm_vs_cold_speedup"] = round(
        cold_s / stats.min, 1
    )


STORE_WRITES = 300


def test_bench_store_writes(benchmark, tmp_path):
    """A cold sweep's store traffic: each job misses, then its result is
    put, 300 times into a fresh store."""
    result = SimulationResult(
        total_refs=1000,
        levels=(LevelStats("L1", 1000, 120), LevelStats("L2", 120, 17)),
    )
    keys = [f"{n:064x}" for n in range(STORE_WRITES)]
    roots = itertools.count()

    def fresh():
        return (ResultStore(tmp_path / str(next(roots))),), {}

    def sweep(store):
        for key in keys:
            if store.get(key) is None:
                store.put(key, result)
        return store

    store = benchmark.pedantic(sweep, setup=fresh, rounds=20, iterations=1)
    assert (store.misses, store.puts) == (STORE_WRITES, STORE_WRITES)
    assert len(ResultStore(store.root)) == STORE_WRITES
    stats = getattr(benchmark.stats, "stats", benchmark.stats)
    benchmark.extra_info["puts"] = STORE_WRITES
    benchmark.extra_info["us_per_put"] = round(stats.median / STORE_WRITES * 1e6, 1)


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_bench_sweep_workers(benchmark, workers):
    """Cold sweep wall time at each pool width (store disabled, so every
    round re-simulates; jobs are sized to keep rounds short)."""
    jobs = [job_for(n) for n in (64, 72, 80, 88, 96, 104)]

    def run():
        with SweepExecutor(workers=workers) as ex:
            return ex.run(jobs)

    results = benchmark.pedantic(run, rounds=2, iterations=1, warmup_rounds=0)
    assert all(r is not None for r in results)
    stats = getattr(benchmark.stats, "stats", benchmark.stats)
    benchmark.extra_info["workers"] = workers
    benchmark.extra_info["jobs_per_sec"] = round(len(jobs) / stats.min, 1)


@pytest.fixture(scope="module")
def fuzz_population_blob():
    """The 300 fuzzed jobs (100 programs x the 3 cross-validation
    hierarchies), pickled so every round can key fresh objects."""
    population = fuzzed_workloads(0, 100, FuzzConfig(max_refs=200_000, max_trip=96))
    jobs = [SimJob(program, layout, hierarchy)
            for hierarchy in CROSSVAL_HIERARCHIES.values()
            for _, program, layout in population]
    return pickle.dumps(jobs)


def test_bench_job_keys(benchmark, fuzz_population_blob):
    """First-sight key cost: each round keys a freshly unpickled copy of
    the population, so the per-object key memo starts empty."""

    def fresh():
        return (pickle.loads(fuzz_population_blob),), {}

    def key_all(jobs):
        return [job.key() for job in jobs]

    keys = benchmark.pedantic(key_all, setup=fresh, rounds=20, iterations=1)
    assert len(set(keys)) == len(keys) == 300
    stats = getattr(benchmark.stats, "stats", benchmark.stats)
    benchmark.extra_info["jobs"] = len(keys)
    benchmark.extra_info["us_per_job"] = round(stats.median / len(keys) * 1e6, 1)
    benchmark.extra_info["keys_per_sec"] = round(len(keys) / stats.median, 1)
