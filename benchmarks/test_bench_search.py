"""Benchmark: one autotuning round (ext_search on a small kernel pair).

Also pins the recorder's JSON format, since BENCH_search.json is the
artifact downstream tooling will diff.
"""

import json

from benchmarks import recorder
from repro.experiments import ext_search


def run():
    return ext_search.run(quick=True, programs=["dot", "jacobi"], budget=8)


def test_bench_search(benchmark):
    result = benchmark.pedantic(run, rounds=2, iterations=1, warmup_rounds=0)
    assert [r.program for r in result.rows] == ["dot", "jacobi"]
    for row in result.rows:
        assert row.report.best_objective <= row.report.baseline_objective


def test_recorder_appends_sessions(tmp_path):
    path = tmp_path / "bench.json"
    rows = [{"name": "x", "group": None, "mean_s": 0.1, "min_s": 0.1,
             "max_s": 0.1, "rounds": 2}]
    assert recorder.append_session(rows, path) == path
    recorder.append_session(rows, path)
    history = json.loads(path.read_text())
    assert len(history) == 2
    for session in history:
        assert session["benchmarks"] == rows
        assert "timestamp" in session


def test_recorder_moves_corrupt_file_aside(tmp_path):
    path = tmp_path / "bench.json"
    path.write_text("not json{")
    rows = [{"name": "x", "mean_s": 0.1, "min_s": 0.1, "max_s": 0.1,
             "group": None, "rounds": 1}]
    recorder.append_session(rows, path)
    assert json.loads(path.read_text())[0]["benchmarks"] == rows
    assert (tmp_path / "bench.json.bak").exists()


def test_recorder_disabled_by_env(monkeypatch):
    monkeypatch.setenv(recorder.ENV_BENCH_JSON, "off")
    assert recorder.output_path() is None
    assert recorder.append_session([{"name": "x"}]) is None


def test_recorder_skips_empty_sessions(tmp_path):
    assert recorder.append_session([], tmp_path / "bench.json") is None
    assert not (tmp_path / "bench.json").exists()


def test_recorder_routes_groups_to_their_files(tmp_path, monkeypatch):
    monkeypatch.setenv(recorder.ENV_BENCH_JSON, str(tmp_path / "search.json"))
    monkeypatch.setenv("REPRO_BENCH_SIM_JSON", str(tmp_path / "sim.json"))
    monkeypatch.setenv("REPRO_BENCH_ASSOC_JSON", "off")
    rows = [{"name": name, "group": group, "mean_s": 0.1, "min_s": 0.1,
             "max_s": 0.1, "rounds": 1}
            for name, group in (("a", "sim"), ("b", None), ("c", "assoc"))]
    written = recorder.append_routed(rows)
    assert sorted(p.name for p in written) == ["search.json", "sim.json"]
    sim = json.loads((tmp_path / "sim.json").read_text())
    assert [r["name"] for r in sim[0]["benchmarks"]] == ["a"]
    search = json.loads((tmp_path / "search.json").read_text())
    assert [r["name"] for r in search[0]["benchmarks"]] == ["b"]
