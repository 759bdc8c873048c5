"""Backends must never alias in the result store.

The v2 key schema adds a backend component to every job key: an
``oracle`` result can never be served for a ``sim`` request, and vice
versa -- even for the *same* (program, layout, hierarchy).  Stores
written before the symbolic tier was retired also hold entries under
``job.key("symbolic")``; those must never be served either.  These tests
pin that property at the key level, at the store level, and end-to-end
through the executor, along with ``auto`` being nothing but ``sim``.
"""

from __future__ import annotations

import pytest

from repro import DataLayout, ProgramBuilder
from repro.cache.config import CacheConfig, HierarchyConfig
from repro.errors import ReproError
from repro.exec.backends import BACKENDS, validate_backend
from repro.exec.executor import SweepExecutor
from repro.exec.hashing import SCHEMA_VERSION
from repro.exec.jobs import SimJob
from repro.exec.store import ResultStore


def build_job(n: int = 16) -> SimJob:
    b = ProgramBuilder("keyed")
    A = b.array("A", (n,))
    B = b.array("B", (n,))
    (i,) = b.vars("i")
    b.nest([b.loop(i, 1, n)], [b.assign(B[i], reads=[A[i]], flops=1)])
    program = b.build()
    hier = HierarchyConfig(
        levels=(
            CacheConfig(size=16 * 1024, line_size=32, name="L1"),
            CacheConfig(size=64 * 1024, line_size=64, name="L2"),
        )
    )
    return SimJob(program, DataLayout.sequential(program), hier)


class TestKeySchema:
    def test_schema_version_is_two(self):
        # v2 added the backend component; bump this pin deliberately
        # whenever the key layout changes again.
        assert SCHEMA_VERSION == 2

    def test_backends_are_closed(self):
        assert BACKENDS == ("sim", "oracle")

    def test_validate_backend(self):
        for name in BACKENDS:
            assert validate_backend(name) == name
        assert validate_backend("auto") == "sim"
        for name in ("symbolic", "model", "quantum"):
            with pytest.raises(ReproError, match="backend"):
                validate_backend(name)

    def test_backend_separates_keys(self):
        job = build_job()
        keys = {job.key(backend) for backend in (*BACKENDS, "symbolic")}
        assert len(keys) == len(BACKENDS) + 1
        assert job.key() == job.key("sim")  # sim is the default backend

    def test_same_backend_same_key(self):
        for backend in BACKENDS:
            assert build_job().key(backend) == build_job().key(backend)


class TestStoreIsolation:
    def test_symbolic_entry_invisible_to_sim_key(self, tmp_path):
        job = build_job()
        store = ResultStore(tmp_path)
        result = job.run()
        store.put(job.key("symbolic"), result)
        assert store.get(job.key("sim")) is None
        assert store.get(job.key("oracle")) is None
        assert store.get(job.key("symbolic")) is not None

    def test_sim_entry_invisible_to_symbolic_key(self, tmp_path):
        job = build_job()
        store = ResultStore(tmp_path)
        store.put(job.key("sim"), job.run())
        assert store.get(job.key("symbolic")) is None


class TestExecutorTierIsolation:
    def test_forced_sim_resimulates_after_auto(self, tmp_path):
        """The regression the schema bump exists to prevent: an older
        ``auto`` run stored a symbolic result under ``job.key("symbolic")``;
        a ``sim`` (or today's ``auto``) run of the same job must simulate,
        not serve that entry."""
        job = build_job()
        planted = build_job(64).run()  # detectably not this job's counts
        assert planted != job.run()
        for backend in ("sim", "auto"):
            store = ResultStore(tmp_path / backend)
            store.put(job.key("symbolic"), planted)
            ex = SweepExecutor(workers=1, store=store, backend=backend)
            [res] = ex.run([job])
            assert ex.stats.cache_hits == 0, backend
            assert ex.stats.simulated_jobs == 1, backend
            assert res == job.run()

    def test_auto_resolves_to_sim(self, tmp_path):
        """``auto`` is ``sim``: same key, same result, counted as
        simulated, and either one replays what the other stored."""
        job = build_job()
        auto_ex = SweepExecutor(workers=1, store=ResultStore(tmp_path / "a"),
                                backend="auto")
        assert auto_ex.backend == "sim"
        [auto_res] = auto_ex.run([job])
        assert auto_ex.stats.simulated_jobs == 1
        assert [r.key for r in auto_ex.stats.records] == [job.key("sim")]

        store = ResultStore(tmp_path / "s")
        sim_ex = SweepExecutor(workers=1, store=store, backend="sim")
        [sim_res] = sim_ex.run([job])
        assert sim_res == auto_res

        later = SweepExecutor(workers=1, store=store, backend="auto")
        [replayed] = later.run([job])
        assert later.stats.cache_hits == 1
        assert later.stats.simulated_jobs == 0
        assert replayed == sim_res

    def test_auto_serves_its_own_store_entry_next_run(self, tmp_path):
        job = build_job()
        store = ResultStore(tmp_path)
        SweepExecutor(workers=1, store=store, backend="auto").run([job])
        second = SweepExecutor(workers=1, store=store, backend="auto")
        second.run([job])
        assert second.stats.cache_hits == 1
        assert second.stats.simulated_jobs == 0

    def test_auto_replays_simulated_job_without_classifying(
        self, tmp_path, monkeypatch
    ):
        """Neither a cold nor a warm ``auto`` run consults the symbolic
        classifier."""
        import repro.symbolic

        calls = []
        classify = repro.symbolic.classify_job
        monkeypatch.setattr(
            repro.symbolic, "classify_job",
            lambda j: calls.append(j) or classify(j),
        )
        job = build_job(4096)
        store = ResultStore(tmp_path)
        first = SweepExecutor(workers=1, store=store, backend="auto")
        [cold] = first.run([job])
        assert first.stats.simulated_jobs == 1
        second = SweepExecutor(workers=1, store=store, backend="auto")
        [warm] = second.run([job])
        assert second.stats.cache_hits == 1
        assert calls == []
        assert warm == cold

    def test_per_call_backend_overrides_constructor(self, tmp_path):
        job = build_job()
        ex = SweepExecutor(workers=1, store=None, backend="sim")
        ex.run([job], backend="oracle")
        assert [r.key for r in ex.stats.records] == [job.key("oracle")]
        assert ex.stats.simulated_jobs == 1

    def test_unknown_backend_rejected(self):
        for name in ("quantum", "symbolic", "model"):
            with pytest.raises(ReproError, match="backend"):
                SweepExecutor(workers=1, backend=name)
            ex = SweepExecutor(workers=1)
            with pytest.raises(ReproError, match="backend"):
                ex.run([build_job()], backend=name)
