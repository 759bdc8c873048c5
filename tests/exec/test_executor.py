"""SweepExecutor behaviour: memoization, dedup, fallback, CLI flags."""

from __future__ import annotations

import pytest

from repro import DataLayout, ProgramBuilder, ultrasparc_i
from repro.errors import ReproError
from repro.exec import executor as executor_module
from repro.exec import scheduler as scheduler_module
from repro.exec.executor import SweepExecutor, execute_one
from repro.exec.jobs import SimJob
from repro.exec.store import ResultStore
from repro.experiments.__main__ import main


def small_program(n: int = 96, stride: int = 1):
    b = ProgramBuilder(f"small{n}_{stride}")
    A = b.array("A", (n, n))
    B = b.array("B", (n, n))
    i, j = b.vars("i", "j")
    b.nest(
        [b.loop(j, 1, n - 1), b.loop(i, 1, n - 1, stride)],
        [b.assign(B[i, j], reads=[A[i, j], A[i, j + 1]], flops=1)],
    )
    return b.build()


def job_for(n: int = 96, stride: int = 1, tag=()):
    p = small_program(n, stride)
    return SimJob(
        program=p,
        layout=DataLayout.sequential(p),
        hierarchy=ultrasparc_i(),
        tag=tag,
    )


class TestMemoization:
    def test_second_run_hits_every_job(self, tmp_path):
        jobs = [job_for(n) for n in (64, 96, 128)]
        store = ResultStore(tmp_path)
        first = SweepExecutor(workers=1, store=store).run(jobs)
        ex = SweepExecutor(workers=1, store=store)
        second = ex.run(jobs)
        assert second == first
        assert ex.stats.cache_hits == len(jobs)
        assert ex.stats.hit_rate == 1.0
        assert ex.stats.sim_seconds == 0.0
        assert all(r.source == "cache" for r in ex.stats.records)

    def test_store_shared_between_serial_and_pool(self, tmp_path):
        jobs = [job_for(n) for n in (64, 96)]
        store = ResultStore(tmp_path)
        SweepExecutor(workers=2, store=store).run(jobs)
        ex = SweepExecutor(workers=1, store=store)
        ex.run(jobs)
        assert ex.stats.hit_rate == 1.0

    def test_duplicate_jobs_simulate_once(self):
        ex = SweepExecutor(workers=1)
        results = ex.run([job_for(64), job_for(64), job_for(64)])
        assert results[0] == results[1] == results[2]
        simulated = [r for r in ex.stats.records if r.source != "cache"]
        assert len(simulated) == 1
        assert ex.stats.cache_hits == 2

    def test_no_store_still_runs(self):
        with SweepExecutor(workers=1, store=None) as ex:
            results = ex.run([job_for(64)])
        assert results[0].total_refs > 0
        assert ex.stats.cache_hits == 0


class TestFallbackAndValidation:
    def test_pool_failure_falls_back_to_serial(self, monkeypatch):
        class BrokenPool:
            def __init__(self, *a, **k):
                raise OSError("no process spawning here")

        monkeypatch.setattr(scheduler_module, "ProcessPoolExecutor", BrokenPool)
        jobs = [job_for(64), job_for(96)]
        ex = SweepExecutor(workers=4)
        results = ex.run(jobs)
        assert all(r is not None for r in results)
        assert all(r.source == "serial" for r in ex.stats.records)
        assert results == SweepExecutor(workers=1).run(jobs)

    def test_workers_must_be_positive(self):
        with pytest.raises(ReproError):
            SweepExecutor(workers=0)

    def test_run_rejects_non_jobs(self):
        with pytest.raises(ReproError):
            SweepExecutor(workers=1).run(["not a job"])

    def test_stats_format_line(self, tmp_path):
        store = ResultStore(tmp_path)
        ex = SweepExecutor(workers=1, store=store)
        ex.run([job_for(64), job_for(64)])
        line = ex.stats.format()
        assert "2 jobs" in line
        assert "1 cached (50%)" in line
        assert "1 simulated" in line

    def test_history_accumulates(self):
        ex = SweepExecutor(workers=1)
        ex.run([job_for(64)])
        ex.run([job_for(96)])
        assert len(ex.history) == 2


@pytest.fixture
def env_store(tmp_path, monkeypatch):
    """A process-wide default store opened from ``REPRO_CACHE_DIR``."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.setattr(executor_module, "_default_store", executor_module._UNSET)


class TestExecuteOne:
    def test_explicit_store(self, tmp_path):
        store = ResultStore(tmp_path)
        job = job_for(64)
        first = execute_one(job, store=store)
        second = execute_one(job, store=store)
        assert first == second
        assert store.hits == 1 and store.puts == 1

    def test_default_store_plumbing(self, env_store):
        job = job_for(96)
        execute_one(job)
        execute_one(job)
        store = executor_module.get_default_store()
        assert store is not None and store.hits == 1

    def test_store_none_forces_fresh(self, env_store):
        job = job_for(64)
        execute_one(job)
        execute_one(job, store=None)
        assert executor_module.get_default_store().hits == 0


class TestCLI:
    def test_workers_and_cache_flags(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        out = tmp_path / "out"
        argv = [
            "timetile", "--quick", "--workers", "2",
            "--cache-dir", str(cache), "--out", str(out),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "[exec]" in first
        assert (out / "timetile.txt").is_file()
        assert len(ResultStore(cache)) > 0, "store not populated"

        # Second invocation: everything served from the store.
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "cached (100%)" in second

    def test_no_cache_flag(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        argv = [
            "timetile", "--quick", "--workers", "1",
            "--cache-dir", str(cache), "--no-cache",
        ]
        assert main(argv) == 0
        assert "0 cached" in capsys.readouterr().out
        assert not cache.exists()
