"""The obs layer observed through real subsystems: executor, search, CLI."""

from __future__ import annotations

import json
import os

from repro import DataLayout, ProgramBuilder, ultrasparc_i
from repro.exec.executor import SweepExecutor
from repro.exec.jobs import SimJob
from repro.exec.store import ResultStore
from repro.experiments.__main__ import main
from repro.obs.metrics import MetricsRegistry, format_exec_line, get_metrics, set_metrics
from repro.obs.report import format_report
from tests.obs.conftest import load_trace
from repro.obs.tracer import start_tracing, stop_tracing
from repro.search.space import pad_space
from repro.search.tuner import Autotuner


def small_program(n: int = 96):
    b = ProgramBuilder(f"obs{n}")
    A = b.array("A", (n, n))
    B = b.array("B", (n, n))
    i, j = b.vars("i", "j")
    b.nest(
        [b.loop(j, 1, n - 1), b.loop(i, 1, n - 1)],
        [b.assign(B[i, j], reads=[A[i, j], A[i, j + 1]], flops=1)],
    )
    return b.build()


def job_for(n: int = 96):
    p = small_program(n)
    return SimJob(program=p, layout=DataLayout.sequential(p),
                  hierarchy=ultrasparc_i())


class TestExecutorSpans:
    def test_pool_jobs_nest_under_sweep_with_worker_tids(self):
        tracer = start_tracing()
        jobs = [job_for(n) for n in (64, 80, 96, 112)]
        SweepExecutor(workers=2).run(jobs)
        stop_tracing()
        spans = tracer.spans()
        (sweep,) = [s for s in spans if s.name == "exec.sweep"]
        job_spans = [s for s in spans if s.name == "exec.job"]
        assert len(job_spans) == len(jobs)
        assert all(s.parent_id == sweep.span_id for s in job_spans)
        assert all(s.args["source"] == "pool" for s in job_spans)
        # Worker pids become tids (per-worker lanes); never this process.
        assert all(s.tid == s.args["worker_pid"] for s in job_spans)
        assert all(s.tid != os.getpid() for s in job_spans)
        assert all(s.args["queue_wait_s"] >= 0.0 for s in job_spans)

    def test_store_hits_emit_events_not_spans(self, tmp_path):
        store = ResultStore(tmp_path)
        jobs = [job_for(n) for n in (64, 80)]
        SweepExecutor(workers=1, store=store).run(jobs)
        tracer = start_tracing()
        SweepExecutor(workers=1, store=store).run(jobs)
        stop_tracing()
        names = [s.name for s in tracer.spans()]
        assert names.count("exec.store_hit") == len(jobs)
        assert "exec.job" not in names

    def test_exec_counters_and_stats_line_agree(self):
        m = get_metrics()
        before = m.snapshot()
        ex = SweepExecutor(workers=1)
        ex.run([job_for(64), job_for(64)])  # duplicate -> one dedup hit
        d = {
            k: v - before.get("counters", {}).get(k, 0)
            for k, v in m.snapshot()["counters"].items()
        }
        assert d["exec.jobs"] == 2
        assert d["exec.store_hits"] == 1  # in-run dedup counts as a hit
        assert d["exec.simulated"] == 1
        assert d["sim.refs"] > 0
        assert d["cache.L1.accesses"] == d["sim.refs"]
        line = format_exec_line(
            jobs=d["exec.jobs"], cache_hits=d["exec.store_hits"],
            pooled=int(d.get("exec.pool_jobs", 0)), workers=ex.workers,
            sim_seconds=ex.stats.sim_seconds,
            wall_seconds=ex.stats.wall_seconds,
        )
        assert line == ex.stats.format()


class TestSearchEvents:
    def test_search_best_events_match_report_trajectory(self):
        prog = small_program(64)
        space = pad_space(prog, DataLayout.sequential(prog), ultrasparc_i(),
                          max_lines=3)
        tracer = start_tracing()
        report = Autotuner().search(space, strategy="exhaustive")
        stop_tracing()
        best_events = [s for s in tracer.spans() if s.name == "search.best"]
        assert [e.args["value"] for e in best_events] == [
            v for _, v in report.trajectory
        ]
        (run_span,) = [s for s in tracer.spans() if s.name == "search.run"]
        assert run_span.args["evaluations"] == report.evaluations
        assert run_span.args["best"] == report.best_objective
        rounds = [s for s in tracer.spans() if s.name == "search.round"]
        assert rounds and all(
            s.parent_id == run_span.span_id for s in rounds
        )

    def test_search_best_links_to_exec_job_span(self):
        prog = small_program(64)
        space = pad_space(prog, DataLayout.sequential(prog), ultrasparc_i(),
                          max_lines=3)
        tracer = start_tracing()
        Autotuner().search(space, strategy="exhaustive")
        stop_tracing()
        spans = tracer.spans()
        job_span_ids = {s.span_id for s in spans if s.name == "exec.job"}
        best_events = [s for s in spans if s.name == "search.best"]
        assert best_events
        # Every improvement links back to the simulation that produced it
        # (fresh cold-store search: every evaluation is a real exec.job).
        for e in best_events:
            assert e.args["exec_span"] in job_span_ids

    def test_search_best_link_survives_pool_execution(self, tmp_path):
        prog = small_program(64)
        space = pad_space(prog, DataLayout.sequential(prog), ultrasparc_i(),
                          max_lines=3)
        tracer = start_tracing()
        with SweepExecutor(workers=2, store=ResultStore(tmp_path)) as ex:
            Autotuner(executor=ex).search(space, strategy="exhaustive")
        stop_tracing()
        spans = tracer.spans()
        job_span_ids = {s.span_id for s in spans if s.name == "exec.job"}
        for e in (s for s in spans if s.name == "search.best"):
            assert e.args["exec_span"] in job_span_ids


class TestCLITrace:
    def test_trace_flag_writes_valid_jsonl_with_experiment_root(
        self, tmp_path, capsys
    ):
        trace = tmp_path / "out.jsonl"
        rc = main(["timetile", "--quick", "--workers", "1", "--no-cache",
                   "--trace", str(trace)])
        assert rc == 0
        assert "[obs] trace written" in capsys.readouterr().out
        spans, metrics = load_trace(trace)
        names = {s["name"] for s in spans}
        assert "experiment.timetile" in names
        assert "exec.sweep" in names
        assert "exec.job" in names
        assert metrics["counters"]["exec.jobs"] > 0
        # Each line parses standalone (what the CI smoke step asserts).
        for line in trace.read_text().splitlines():
            json.loads(line)

    def test_chrome_format_loads_and_reports(self, tmp_path, capsys):
        trace = tmp_path / "out.json"
        rc = main(["timetile", "--quick", "--workers", "1", "--no-cache",
                   "--trace", str(trace), "--trace-format", "chrome"])
        assert rc == 0
        doc = json.load(open(trace))
        # Complete spans, instants, and the timeline's counter tracks.
        assert {e["ph"] for e in doc["traceEvents"]} <= {"X", "i", "C"}
        capsys.readouterr()
        rc = main(["report", "--trace", str(trace)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Top spans by self-time" in out
        assert "exec.job" in out

    def test_report_requires_existing_trace(self, tmp_path):
        import pytest

        with pytest.raises(SystemExit):
            main(["report"])
        with pytest.raises(SystemExit):
            main(["report", "--trace", str(tmp_path / "missing.jsonl")])

    def test_no_trace_flag_writes_nothing(self, tmp_path, capsys):
        before = set(os.listdir(tmp_path))
        rc = main(["timing", "--quick"])
        assert rc == 0
        assert "[obs] trace written" not in capsys.readouterr().out
        assert set(os.listdir(tmp_path)) == before

    def test_report_text_matches_library_formatting(self, tmp_path, capsys):
        trace = tmp_path / "out.jsonl"
        main(["timing", "--quick", "--trace", str(trace)])
        capsys.readouterr()
        assert main(["report", "--trace", str(trace)]) == 0
        assert capsys.readouterr().out.strip() == format_report(trace).strip()


class TestPerLevelChunkTiming:
    def test_traced_hierarchy_times_each_level_and_counts_elided_hits(self):
        """Under a tracer every level's share of each chunk lands in its
        own histogram, so a report splits L1 from L2; the elided-hit
        counter advances whether or not a tracer is active."""
        job = job_for(96)
        untraced = job.run()
        elided = get_metrics().counter("cache.mru_elided").value
        assert 0 < elided <= untraced.levels[0].accesses - untraced.levels[0].misses
        assert "cache.L1.chunk_seconds" not in get_metrics().snapshot().get("histograms", {})
        start_tracing()
        try:
            assert job.run() == untraced
        finally:
            stop_tracing()
        hists = get_metrics().snapshot()["histograms"]
        chunks = hists["cache.chunk_seconds"]["count"]
        assert chunks > 0
        assert hists["cache.L1.chunk_seconds"]["count"] == chunks
        assert hists["cache.L2.chunk_seconds"]["count"] == chunks
        assert get_metrics().counter("cache.mru_elided").value == 2 * elided

    def test_pool_workers_report_the_serial_observation_counts(
        self, tmp_path, capsys
    ):
        """A pooled job's worker-side metrics travel back with its result,
        so a traced two-worker run reports every per-chunk histogram and
        simulator counter with the counts of the one-worker run."""
        def recorded(workers):
            set_metrics(MetricsRegistry())
            trace = tmp_path / f"w{workers}.jsonl"
            assert main(["timetile", "--quick", "--no-cache", "--workers",
                         str(workers), "--trace", str(trace)]) == 0
            _, metrics = load_trace(trace)
            counts = {name: h["count"]
                      for name, h in metrics["histograms"].items()
                      if name.startswith("cache.")}
            counters = {name: v for name, v in metrics["counters"].items()
                        if name.startswith("cache.")}
            return trace, counts, counters, metrics["counters"]

        _, serial, serial_counters, _ = recorded(1)
        trace, pooled, pooled_counters, exec_counters = recorded(2)
        assert exec_counters["exec.pool_jobs"] > 0
        assert {"cache.chunk_seconds", "cache.L1.chunk_seconds",
                "cache.L2.chunk_seconds"} <= set(serial)
        assert pooled == serial
        assert pooled_counters == serial_counters
        capsys.readouterr()
        assert main(["report", "--trace", str(trace)]) == 0
        report = capsys.readouterr().out
        for name in ("cache.chunk_seconds", "cache.L1.chunk_seconds",
                     "cache.L2.chunk_seconds"):
            assert f"[obs] {name}: n={serial[name]} " in report
