"""The persistent pool, payload broadcast, and dispatch core.

The scheduler's contract: a pool survives across ``run()`` calls (one
spin-up, many sweeps), shared program/hierarchy state pickles once per
sweep, dispatch reassembles results by submission rank, and a
deterministic job error propagates out of the pool exactly as the serial
path would raise it.
"""

from __future__ import annotations

import pickle

import pytest

from repro.errors import SimulationError
from repro.exec.cost import estimate_job_refs, job_cost
from repro.exec.executor import SweepExecutor, _timed_run
from repro.exec.scheduler import WorkerPool, dispatch_jobs, pack_payloads
from tests.exec.test_executor import job_for


class TestWorkerPool:
    def test_lazy_and_persistent(self):
        with WorkerPool(2) as pool:
            assert not pool.alive and pool.spinups == 0
            inner = pool.ensure()
            assert pool.alive and pool.spinups == 1
            assert pool.ensure() is inner, "ensure() must reuse the pool"
            assert pool.spinups == 1
        assert not pool.alive

    def test_close_is_idempotent(self):
        pool = WorkerPool(1)
        pool.ensure()
        pool.close()
        pool.close()
        assert not pool.alive

    def test_reopen_after_close(self):
        pool = WorkerPool(1)
        pool.ensure()
        pool.close()
        pool.ensure()
        assert pool.alive and pool.spinups == 2
        pool.close()

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            WorkerPool(0)


class TestPayloadBroadcast:
    def test_shared_program_pickles_once(self):
        base = job_for(64)
        variants = [base, base]  # same program/hierarchy objects
        entries = pack_payloads(variants)
        digests = {digest for digest, _, _ in entries}
        assert len(digests) == 1, "one sweep group must share one blob"

    def test_identical_content_collapses(self):
        # Distinct objects, same content: digest over pickled bytes
        # collapses them too.
        a, b = job_for(64), job_for(64)
        assert a.program is not b.program
        entries = pack_payloads([a, b])
        assert entries[0][0] == entries[1][0]

    def test_variant_carries_job_specifics(self):
        job = job_for(64)
        (_, _, variant), = pack_payloads([job])
        assert variant == (job.layout, job.kernel, job.nest_index,
                           job.max_chunk_refs, job.timeline_window)


class TestDispatch:
    def test_results_keyed_by_rank(self):
        jobs = [job_for(n) for n in (64, 80, 96)]
        with WorkerPool(2) as pool:
            disp = dispatch_jobs(pool, pack_payloads(jobs), _timed_run)
        assert not disp.failed
        assert sorted(disp.outs) == [0, 1, 2]
        for rank, job in enumerate(jobs):
            result = disp.outs[rank][0]
            assert result == job.run(), f"rank {rank} mismatched its job"

    def test_job_error_propagates(self):
        # A deterministic job failure is not a pool failure: it must
        # raise out of the dispatch, exactly as the serial path would.
        jobs = [job_for(64), job_for(80)]
        with WorkerPool(2) as pool:
            with pytest.raises(SimulationError):
                dispatch_jobs(pool, pack_payloads(jobs), _raise_simulation_error)


def _raise_simulation_error(job):
    raise SimulationError("deterministic job failure")


class TestPersistentExecutorPool:
    def test_pool_reused_across_runs(self):
        jobs_a = [job_for(n) for n in (64, 80, 96)]
        jobs_b = [job_for(n) for n in (72, 88, 104)]
        with SweepExecutor(workers=2) as ex:
            ex.run(jobs_a)
            ex.run(jobs_b)
            assert ex.pool().spinups == 1, "second run must reuse the pool"

    def test_persistent_pool_matches_fresh_pools(self):
        jobs_a = [job_for(n) for n in (64, 80, 96)]
        jobs_b = [job_for(n) for n in (72, 88, 104)]
        with SweepExecutor(workers=2) as ex:
            first = ex.run(jobs_a)
            second = ex.run(jobs_b)
        fresh_first, _ = _fresh_run(jobs_a)
        fresh_second, _ = _fresh_run(jobs_b)
        assert [pickle.dumps(r) for r in first] == \
               [pickle.dumps(r) for r in fresh_first]
        assert [pickle.dumps(r) for r in second] == \
               [pickle.dumps(r) for r in fresh_second]

    def test_close_then_run_respins(self):
        with SweepExecutor(workers=2) as ex:
            ex.run([job_for(64), job_for(80)])
            ex.close()
            results = ex.run([job_for(64), job_for(80)])
            assert all(r is not None for r in results)


def _fresh_run(jobs):
    with SweepExecutor(workers=2) as ex:
        return ex.run(jobs), ex.stats


class TestCostModel:
    def test_refs_estimate_is_exact_for_generic_traces(self):
        job = job_for(64)
        assert estimate_job_refs(job) == job.run().total_refs

    def test_cost_orders_by_size(self):
        small, large = job_for(64), job_for(192)
        assert job_cost(large) > job_cost(small)


class TestDispatchOrder:
    def test_serial_run_never_costs_jobs(self, monkeypatch):
        # Serial results are keyed by index, so ordering them is wasted
        # work: a one-worker sweep must not estimate a single cost.  The
        # executor imports the cost model per parallel sweep, so the spy
        # sits on its defining module.
        import repro.exec.cost as cost

        calls = []
        monkeypatch.setattr(cost, "job_cost",
                            lambda job: calls.append(job) or job_cost(job))
        jobs = [job_for(n) for n in (64, 192, 128)]
        results = SweepExecutor(workers=1).run(jobs)
        assert calls == []
        assert results == [job.run() for job in jobs]
        # The spy does see the pool's ordering.
        with SweepExecutor(workers=2) as ex:
            ex.run(jobs)
        assert len(calls) >= len(jobs)

    def test_pool_gets_jobs_longest_first(self, monkeypatch):
        import repro.exec.scheduler as scheduler

        packed = []
        monkeypatch.setattr(scheduler, "pack_payloads",
                            lambda jobs: packed.append(jobs) or
                            pack_payloads(jobs))
        jobs = [job_for(n) for n in (64, 192, 128, 96)]
        with SweepExecutor(workers=2) as ex:
            results = ex.run(jobs)
        [submitted] = packed
        costs = [job_cost(job) for job in submitted]
        assert costs == sorted(costs, reverse=True)
        assert len(set(costs)) == len(jobs)
        assert results == [job.run() for job in jobs]
