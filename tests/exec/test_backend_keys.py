"""Backend tiers must never alias in the result store.

The v2 key schema adds a backend component to every job key: a result
produced by the symbolic tier can never be served for a simulator
request, and vice versa -- even for the *same* (program, layout,
hierarchy).  These tests pin that property at the key level, at the
store level, and end-to-end through the executor.
"""

from __future__ import annotations

import pytest

from repro import DataLayout, ProgramBuilder
from repro.cache.config import CacheConfig, HierarchyConfig
from repro.errors import ReproError
from repro.exec.backends import BACKENDS, STORED_BACKENDS, validate_backend
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
        assert BACKENDS == ("auto", "symbolic", "model", "sim", "oracle")
        assert set(STORED_BACKENDS) <= set(BACKENDS)
        assert "auto" not in STORED_BACKENDS  # auto resolves, never stores
        assert "model" not in STORED_BACKENDS  # estimates are never cached

    def test_validate_backend(self):
        for name in BACKENDS:
            assert validate_backend(name) == name
        with pytest.raises(ReproError, match="backend"):
            validate_backend("quantum")

    def test_backend_separates_keys(self):
        job = build_job()
        keys = {job.key(backend) for backend in STORED_BACKENDS}
        assert len(keys) == len(STORED_BACKENDS)
        assert job.key() == job.key("sim")  # sim is the default tier

    def test_same_backend_same_key(self):
        assert build_job().key("symbolic") == build_job().key("symbolic")


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
        """The regression the schema bump exists to prevent: an auto run
        stores a symbolic result; a later forced-sim run of the same job
        must simulate, not serve the symbolic entry."""
        job = build_job()
        store = ResultStore(tmp_path)

        auto_ex = SweepExecutor(workers=1, store=store, backend="auto")
        [auto_res] = auto_ex.run([job])
        assert auto_ex.stats.symbolic_jobs == 1  # took the symbolic tier

        sim_ex = SweepExecutor(workers=1, store=store, backend="sim")
        [sim_res] = sim_ex.run([job])
        assert sim_ex.stats.cache_hits == 0
        assert sim_ex.stats.simulated_jobs == 1

        # Different provenance, identical counters (the job is exact).
        for a, s in zip(auto_res.levels, sim_res.levels):
            assert a.misses == s.misses
            assert a.accesses == s.accesses

    def test_auto_serves_its_own_store_entry_next_run(self, tmp_path):
        job = build_job()
        store = ResultStore(tmp_path)
        SweepExecutor(workers=1, store=store, backend="auto").run([job])
        second = SweepExecutor(workers=1, store=store, backend="auto")
        second.run([job])
        assert second.stats.cache_hits == 1
        assert second.stats.symbolic_jobs == 0

    def test_auto_replays_simulated_job_without_classifying(
        self, tmp_path, monkeypatch
    ):
        """A job auto had to simulate is served from its sim entry on the
        next run; the symbolic classifier is not consulted again."""
        import repro.symbolic

        job = build_job(4096)  # outgrows L1: never exact
        store = ResultStore(tmp_path)
        first = SweepExecutor(workers=1, store=store, backend="auto")
        [cold] = first.run([job])
        assert first.stats.simulated_jobs == 1

        calls = []
        classify = repro.symbolic.classify_job
        monkeypatch.setattr(
            repro.symbolic, "classify_job",
            lambda j: calls.append(j) or classify(j),
        )
        second = SweepExecutor(workers=1, store=store, backend="auto")
        [warm] = second.run([job])
        assert second.stats.cache_hits == 1
        assert calls == []
        assert warm == cold

    def test_per_call_backend_overrides_constructor(self, tmp_path):
        job = build_job()
        ex = SweepExecutor(workers=1, store=None, backend="sim")
        ex.run([job], backend="symbolic")
        assert ex.stats.symbolic_jobs == 1

    def test_unknown_backend_rejected(self):
        with pytest.raises(ReproError, match="backend"):
            SweepExecutor(workers=1, backend="quantum")
        ex = SweepExecutor(workers=1)
        with pytest.raises(ReproError, match="backend"):
            ex.run([], backend="quantum")
