"""Benchmark: closed-form prediction throughput, and its edge over
simulation.

The predictor's whole value proposition is the cost asymmetry -- scoring
a config analytically must be orders of magnitude cheaper than
simulating it, or predict-then-verify buys nothing.  The rows here
record predicted configs/sec and predicted jobs/sec (via ``extra_info``,
so the trend gate tracks them) and pin the asymmetry itself.  Each rate
is the best of :data:`ROUNDS` rounds: a round takes milliseconds, and on
a shared host the best of three still swung wider than the trend gate's
30% band.
"""

import time

from repro import DataLayout
from repro.cache.config import ultrasparc_i
from repro.exec.executor import SweepExecutor
from repro.exec.jobs import SimJob
from repro.experiments.ext_search import build_space
from repro.experiments.fig9_pad import QUICK_SIZES
from repro.fuzz import fuzzed_workloads
from repro.kernels.registry import get_kernel
from repro.model import predict_job

N_CONFIGS = 24
ROUNDS = 50


def _jobs(name: str = "jacobi"):
    hier = ultrasparc_i()
    _, space, _ = build_space(name, quick=True, hierarchy=hier)
    configs = []
    for config in space.configs():
        configs.append(config)
        if len(configs) >= N_CONFIGS:
            break
    return [space.job(c) for c in configs]


def test_bench_predict_batch(benchmark):
    jobs = _jobs()
    executor = SweepExecutor(workers=1)
    results = benchmark.pedantic(
        lambda: executor.predict(jobs), rounds=ROUNDS, iterations=1, warmup_rounds=1
    )
    assert len(results) == len(jobs)
    stats = benchmark.stats
    stats = getattr(stats, "stats", stats)
    benchmark.extra_info["predict_configs_per_sec"] = round(
        len(jobs) / stats.min, 1
    )


def test_predict_is_much_cheaper_than_simulate():
    jobs = _jobs("expl")
    executor = SweepExecutor(workers=1)
    t0 = time.perf_counter()
    executor.predict(jobs)
    predict_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    executor.run(jobs[:4])
    simulate_s = (time.perf_counter() - t0) / 4
    per_predict = predict_s / len(jobs)
    # At the shrunken quick sizes the measured edge is ~10x; it widens
    # with the iteration count (prediction cost is size-independent), so
    # a loose 5x floor pins the asymmetry without inviting CI noise.
    assert per_predict * 5 < simulate_s, (per_predict, simulate_s)


def _predict_population():
    """Triangular (linpackd), multi-nest (adi32, shal) and thirty fuzzed
    programs, each under its sequential layout and three padded ones, as
    a search scores a program layout after layout."""
    hier = ultrasparc_i()
    programs = [get_kernel(k).program(QUICK_SIZES[k])
                for k in ("linpackd", "adi32", "shal")]
    programs += [prog for _, prog, _ in fuzzed_workloads(0, 30)]
    jobs = []
    for prog in programs:
        seq = DataLayout.sequential(prog)
        for pad in (0, 32, 136, 1040):
            layout = seq.add_pad(seq.order[-1], pad)
            jobs.append(SimJob(prog, layout, hier))
    return jobs


def test_bench_predict_job(benchmark):
    jobs = _predict_population()

    def predict_all():
        return [predict_job(job) for job in jobs]

    results = benchmark.pedantic(
        predict_all, rounds=ROUNDS, iterations=1, warmup_rounds=1
    )
    assert len(results) == len(jobs)
    stats = benchmark.stats
    stats = getattr(stats, "stats", stats)
    benchmark.extra_info["predict_jobs_per_sec"] = round(len(jobs) / stats.min, 1)
