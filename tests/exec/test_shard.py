"""Sharded sweeps: deterministic partition, store merge, trace merge.

The load-bearing property: N shard runs over disjoint stores, fused with
``merge_stores``, replay byte-identically to the run that never sharded.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.cache.stats import LevelStats, SimulationResult
from repro.errors import ReproError
from repro.exec.executor import SweepExecutor
from repro.exec.shard import (
    ShardSpec,
    merge_stores,
    merge_traces,
    parse_shard,
)
from repro.exec.store import ResultStore
from repro.experiments.__main__ import main
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import format_report, load_trace_doc
from repro.obs.tracer import Tracer
from tests.exec.test_executor import job_for


def make_result(misses: int = 10) -> SimulationResult:
    return SimulationResult(
        total_refs=100,
        levels=(LevelStats(name="L1", accesses=100, misses=misses),),
    )


class TestShardSpec:
    def test_parse_round_trip(self):
        spec = parse_shard("2/4")
        assert spec == ShardSpec(2, 4)
        assert str(spec) == "2/4"
        assert parse_shard(spec) is spec
        assert parse_shard(None) is None

    @pytest.mark.parametrize("bad", ["0/4", "5/4", "2", "a/b", "2/0", ""])
    def test_rejects_malformed_specs(self, bad):
        with pytest.raises(ReproError):
            parse_shard(bad)

    @pytest.mark.parametrize("count", [1, 2, 3, 5])
    def test_partition_tiles_exactly(self, count):
        jobs = [job_for(n) for n in (64, 72, 80, 88, 96, 104)]
        owners = [
            sum(ShardSpec(i, count).owns(job) for i in range(1, count + 1))
            for job in jobs
        ]
        assert owners == [1] * len(jobs), "every job needs exactly one owner"

    def test_ownership_ignores_backend_and_order(self):
        job = job_for(64)
        spec = ShardSpec(1, 3)
        # Ownership is a pure function of content: recomputing never
        # flips it, and the sim-tier key is the domain whatever tier
        # ends up serving the job.
        assert spec.owns(job) == spec.owns(job_for(64))
        assert spec.owns_key(job.key("sim")) == spec.owns(job)


class TestShardedExecution:
    def test_merged_shards_replay_identically(self, tmp_path):
        jobs = [job_for(n) for n in (64, 72, 80, 88, 96, 104)]
        serial = SweepExecutor(workers=1).run(jobs)

        shard_stores = []
        total_owned = 0
        for i in (1, 2):
            store = ResultStore(tmp_path / f"shard{i}")
            ex = SweepExecutor(workers=1, store=store, shard=f"{i}/2")
            results = ex.run(jobs)
            shard_stores.append(store)
            total_owned += ex.stats.jobs
            assert ex.stats.skipped == len(jobs) - ex.stats.jobs
            # Owned jobs match the serial result; non-owned slots are None.
            for job, got, want in zip(jobs, results, serial):
                if ex.shard.owns(job):
                    assert got == want
                else:
                    assert got is None
        assert total_owned == len(jobs), "shards must tile the sweep"

        merged = ResultStore(tmp_path / "merged")
        stats = merge_stores(merged, shard_stores)
        assert stats["sources"] == 2 and stats["duplicates"] == 0

        replay_ex = SweepExecutor(workers=1, store=merged)
        replay = replay_ex.run(jobs)
        assert replay_ex.stats.hit_rate == 1.0, "merged store must be complete"
        assert [pickle.dumps(r) for r in replay] == \
               [pickle.dumps(r) for r in serial]

    def test_sharded_auto_tier_partitions_cleanly(self, tmp_path):
        # ``auto`` is an alias of ``sim``: its shards must merge into a
        # store that replays 100% under ``auto``.
        jobs = [job_for(n) for n in (64, 72, 80, 88)]
        serial = SweepExecutor(workers=1, backend="auto").run(jobs)
        stores = []
        for i in (1, 2):
            store = ResultStore(tmp_path / f"s{i}")
            SweepExecutor(workers=1, store=store, backend="auto",
                          shard=f"{i}/2").run(jobs)
            stores.append(store)
        merged = ResultStore(tmp_path / "m")
        merge_stores(merged, stores)
        replay_ex = SweepExecutor(workers=1, store=merged, backend="auto")
        replay = replay_ex.run(jobs)
        assert replay == serial
        assert replay_ex.stats.hit_rate == 1.0

    @pytest.mark.parametrize("backend, per_job", [("sim", 1), ("auto", 1),
                                                  ("oracle", 2)])
    def test_sharded_sweep_keys_each_job_once_per_backend(
        self, monkeypatch, tmp_path, backend, per_job
    ):
        # A sim run decides ownership on the key it already computed; an
        # oracle run still partitions by the sim key, so it keys twice.
        import repro.exec.jobs as jobs_mod

        calls = []
        real = jobs_mod.job_key

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(jobs_mod, "job_key", counting)
        jobs = [job_for(n) for n in (64, 72, 80, 88)]
        store = ResultStore(tmp_path / "s")
        ex = SweepExecutor(workers=1, store=store, backend=backend, shard="1/2")
        ex.run(jobs)
        assert len(calls) == per_job * len(jobs)
        assert ex.stats.jobs + ex.stats.skipped == len(jobs)


class TestMergeStores:
    def test_byte_equal_duplicates_are_fine(self, tmp_path):
        a, b = ResultStore(tmp_path / "a"), ResultStore(tmp_path / "b")
        key = "ab" + "0" * 62
        a.put(key, make_result())
        b.put(key, make_result())
        stats = merge_stores(tmp_path / "dest", [a, b])
        assert stats == {"merged": 1, "duplicates": 1, "sources": 2}

    def test_conflicting_payloads_raise(self, tmp_path):
        a, b = ResultStore(tmp_path / "a"), ResultStore(tmp_path / "b")
        key = "cd" + "1" * 62
        a.put(key, make_result(misses=10))
        b.put(key, make_result(misses=11))
        with pytest.raises(ReproError, match="merge conflict"):
            merge_stores(tmp_path / "dest", [a, b])

    def test_accepts_paths(self, tmp_path):
        src = ResultStore(tmp_path / "src")
        src.put("ef" + "2" * 62, make_result())
        stats = merge_stores(tmp_path / "dest", [tmp_path / "src"])
        assert stats["merged"] == 1
        assert ResultStore(tmp_path / "dest").peek("ef" + "2" * 62) is not None


class TestMergeTraces:
    def _write_trace(self, path, spans, counters):
        rows = [
            {"type": "span", "id": sid, "parent": parent, "name": name}
            for sid, parent, name in spans
        ]
        rows.append({"type": "metrics", "metrics": {"counters": counters}})
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")

    def test_ids_rebase_and_metrics_fold(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        self._write_trace(a, [(1, None, "root"), (2, 1, "job")],
                          {"exec.jobs": 3})
        self._write_trace(b, [(1, None, "root"), (2, 1, "job")],
                          {"exec.jobs": 4})
        out = tmp_path / "merged.jsonl"
        stats = merge_traces(out, [a, b])
        assert stats == {"spans": 4, "events": 0, "sources": 2}
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        span_ids = [r["id"] for r in rows if r["type"] == "span"]
        assert len(span_ids) == len(set(span_ids)), "ids must not collide"
        # Parent links re-base with their spans.
        children = [r for r in rows if r["type"] == "span" and r["name"] == "job"]
        assert {c["parent"] for c in children} <= set(span_ids)
        (metrics,) = [r for r in rows if r["type"] == "metrics"]
        assert metrics["metrics"]["counters"]["exec.jobs"] == 7

    def test_shared_histogram_loses_its_percentiles(self, tmp_path):
        """A percentile of one shard is not one of the merged run: the
        merged summary keeps exact count/total/min/max/mean only."""
        paths = []
        for seconds in (1.0, 100.0):
            registry = MetricsRegistry()
            for _ in range(10):
                registry.histogram("exec.job_seconds").observe(seconds)
            tracer = Tracer()
            with tracer.span("exec.job"):
                pass
            paths.append(tmp_path / f"{seconds}.jsonl")
            tracer.write_jsonl(paths[-1], metrics=registry.snapshot())
        out = tmp_path / "merged.jsonl"
        merge_traces(out, paths)
        hist = load_trace_doc(out).metrics["histograms"]["exec.job_seconds"]
        assert hist == {"count": 20, "total": 1010.0, "min": 1.0,
                        "max": 100.0, "mean": 50.5}
        assert "exec.job_seconds: n=" not in format_report(out)

    def test_chrome_and_jsonl_sources_merge_every_span(self, tmp_path):
        counts = []
        for name in ("a.jsonl", "b.json"):
            tracer = Tracer()
            with tracer.span("experiment"):
                for _ in range(3):
                    with tracer.span("exec.job"):
                        pass
                tracer.event("store.hit")
            tracer.counter("timeline.L1", ts_ns=1, misses=2)
            tracer.write(tmp_path / name)
            counts.append(len(tracer.spans()))
        out = tmp_path / "merged.jsonl"
        stats = merge_traces(out, [tmp_path / "a.jsonl", tmp_path / "b.json"])
        assert stats == {"spans": 8, "events": 2, "sources": 2}
        doc = load_trace_doc(out)
        assert len(doc.spans) == sum(counts)
        ids = [row["id"] for row in doc.spans]
        assert len(ids) == len(set(ids)), "ids must not collide"
        for row in doc.spans:
            assert row["parent"] is None or row["parent"] in ids
        assert len(doc.counters) == 2

    def test_unreadable_source_names_the_file(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "span", "id": 1}\nnot json\n')
        with pytest.raises(ReproError, match="bad.jsonl"):
            merge_traces(tmp_path / "merged.jsonl", [bad])


class TestCLI:
    def test_merge_verb(self, tmp_path, capsys):
        key = "ab" + "3" * 62
        ResultStore(tmp_path / "a").put(key, make_result())
        ResultStore(tmp_path / "b").put("cd" + "4" * 62, make_result())
        argv = [
            "merge", "--stores", str(tmp_path / "a"), str(tmp_path / "b"),
            "--cache-dir", str(tmp_path / "dest"),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "2 entries merged" in out
        assert ResultStore(tmp_path / "dest").peek(key) is not None

    def test_merge_requires_stores_and_dest(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["merge", "--cache-dir", str(tmp_path / "d")])
        with pytest.raises(SystemExit):
            main(["merge", "--stores", str(tmp_path / "a")])

    def test_shard_flag_validation(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["fig9", "--quick", "--shard", "7/2",
                  "--cache-dir", str(tmp_path)])
        with pytest.raises(SystemExit):
            main(["fig9", "--quick", "--shard", "1/2", "--no-cache"])

    def test_shard_populate_run(self, tmp_path, capsys):
        argv = [
            "timetile", "--quick", "--workers", "1",
            "--shard", "1/1", "--cache-dir", str(tmp_path / "s"),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "[shard]" in out and "shard 1/1" in out
        assert len(ResultStore(tmp_path / "s")) > 0, "store not populated"
