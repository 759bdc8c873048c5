"""The ext_assoc experiment: k-way-aware search vs. direct-mapped heuristics."""

import pytest

from repro.exec.executor import SweepExecutor
from repro.experiments import ext_assoc
from repro.experiments.__main__ import main


@pytest.fixture(scope="module")
def result():
    """One small run (two kernels, one associativity) shared by the tests."""
    return ext_assoc.run(
        quick=True, programs=["dot", "jacobi"], associativities=(2,), budget=6
    )


class TestRun:
    def test_rows_cover_requested_cells(self, result):
        assert [(r.program, r.associativity) for r in result.rows] == [
            ("dot", 2),
            ("jacobi", 2),
        ]

    def test_search_never_worse_than_heuristic(self, result):
        for row in result.rows:
            assert row.report.best_objective <= row.report.baseline_objective
            assert row.report.gap_pct >= 0.0
        assert result.worst_gap_pct >= 0.0

    def test_budget_respected_per_cell(self, result):
        for row in result.rows:
            assert row.report.evaluations <= 6

    def test_format_contains_table_and_summary(self, result):
        text = result.format()
        assert "dot" in text and "jacobi" in text
        assert "2-way" in text
        assert "gap %" in text
        assert "[assoc] worst modeling gap:" in text

    def test_claim_table_comes_first(self, result):
        """The claim table covers its own kernels and precedes the
        headroom table."""
        assert list(result.claim.rates) == ext_assoc.CLAIM_PROGRAMS
        text = result.format()
        assert text.startswith(result.claim.format())
        assert text.index("PAD 4-way%") < text.index("gap %")

    def test_both_default_associativities(self):
        res = ext_assoc.run(quick=True, programs=["dot"], budget=4)
        assert [(r.program, r.associativity) for r in res.rows] == [
            ("dot", 2),
            ("dot", 4),
        ]


class TestBuildSpace:
    def test_heuristic_config_is_a_space_point(self):
        for assoc in (2, 4):
            _, space, heuristic = ext_assoc.build_space(
                "jacobi", assoc, quick=True
            )
            assert space.contains(heuristic)

    def test_space_is_kway_aware(self):
        """Candidate pads include multiples of the k-way set span S1/k,
        which the direct-mapped pad grid (stride S1) cannot express."""
        _, space, _ = ext_assoc.build_space("jacobi", 2, quick=True)
        from repro.cache.config import ultrasparc_i

        span = ultrasparc_i().l1.size // 2
        assert any(
            span in d.choices for d in space.dimensions
        )


class TestCli:
    def test_main_ext_assoc(self, capsys, tmp_path):
        rc = main([
            "ext_assoc", "--quick", "--budget", "4", "--workers", "1",
            "--cache-dir", str(tmp_path / "cache"), "--out", str(tmp_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[assoc] worst modeling gap:" in out
        assert "[exec]" in out
        assert (tmp_path / "ext_assoc.txt").exists()

    def test_executor_threaded_through(self):
        ex = SweepExecutor(workers=1)
        ext_assoc.run(
            quick=True, programs=["dot"], associativities=(2,), budget=4,
            executor=ex,
        )
        assert ex.history
