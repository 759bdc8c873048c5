"""The ext_search experiment: heuristic vs. searched-optimal padding."""

import pytest

from repro.exec.executor import SweepExecutor
from repro.exec.store import ResultStore
from repro.experiments import ext_search
from repro.experiments.__main__ import main


@pytest.fixture(scope="module")
def result():
    """One small two-kernel run shared by the assertion tests."""
    return ext_search.run(quick=True, programs=["dot", "jacobi"], budget=8)


class TestRun:
    def test_rows_cover_requested_programs(self, result):
        assert [r.program for r in result.rows] == ["dot", "jacobi"]

    def test_search_never_worse_than_heuristic(self, result):
        for row in result.rows:
            assert row.report.best_objective <= row.report.baseline_objective
            assert row.report.gap_pct >= 0.0

    def test_budget_respected_per_kernel(self, result):
        for row in result.rows:
            assert row.report.evaluations <= 8

    def test_row_metadata_matches_space(self, result):
        for row in result.rows:
            assert row.dimensions >= 1
            assert row.space_size >= row.report.evaluations

    def test_format_contains_table_and_stats(self, result):
        text = result.format()
        assert "dot" in text and "jacobi" in text
        assert "gap %" in text
        assert "[search] evaluations:" in text

    def test_warm_store_serves_repeat_run(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        cold = ext_search.run(quick=True, programs=["dot"], budget=6, store=store)
        warm = ext_search.run(quick=True, programs=["dot"], budget=6, store=store)
        assert cold.total_store_hits == 0
        assert warm.store_hit_rate == 1.0
        assert warm.rows[0].report.best_objective == cold.rows[0].report.best_objective


class TestBuildSpace:
    def test_heuristic_config_is_a_space_point(self):
        _, space, heuristic = ext_search.build_space("jacobi", quick=True)
        assert space.contains(heuristic)

    def test_strategy_choice_tracks_space_size(self):
        _, space, _ = ext_search.build_space("dot", quick=True)
        assert ext_search._pick_strategy(space, space.size) == "exhaustive"
        assert ext_search._pick_strategy(space, space.size - 1) == "coordinate"


class TestCli:
    def test_main_ext_search(self, capsys, tmp_path):
        rc = main([
            "ext_search", "--quick", "--budget", "4", "--workers", "1",
            "--cache-dir", str(tmp_path / "cache"), "--out", str(tmp_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[search] evaluations:" in out
        assert "[exec]" in out
        assert (tmp_path / "ext_search.txt").exists()

    def test_budget_validated(self):
        with pytest.raises(SystemExit):
            main(["ext_search", "--budget", "0"])

    def test_executor_threaded_through(self):
        ex = SweepExecutor(workers=1)
        ext_search.run(quick=True, programs=["dot"], budget=4, executor=ex)
        assert ex.history
