"""The ext_model experiment: predictor accuracy + predict-then-verify."""

import pytest

from repro.exec.executor import SweepExecutor
from repro.experiments import ext_model
from repro.experiments.__main__ import main


@pytest.fixture(scope="module")
def result():
    """One small single-kernel run (plus the joint matmul row), shared."""
    return ext_model.run(
        quick=True, programs=["dot"], budget=8, scale=10, matmul_n=32
    )


class TestRun:
    def test_accuracy_rows(self, result):
        assert [r.program for r in result.accuracy] == ["dot"]
        row = result.accuracy_row("dot")
        assert row.sampled <= row.space_size
        assert -1.0 <= row.spearman <= 1.0
        assert row.l1_error >= 0.0 and row.mem_error >= 0.0
        assert row.best_gap_pct >= 0.0
        with pytest.raises(KeyError):
            result.accuracy_row("nope")

    def test_dot_space_is_ranked_perfectly(self, result):
        """The resonant dot space is the predictor's exact regime."""
        row = result.accuracy_row("dot")
        assert row.spearman == pytest.approx(1.0)
        assert row.best_gap_pct == pytest.approx(0.0)

    def test_verify_rows(self, result):
        assert [r.program for r in result.verify] == ["dot", "matmul-32 (joint)"]
        row = result.verify_row("dot")
        assert row.ptv_sims <= 8  # budget cap applies to the verification tier
        assert row.ptv_scored >= row.ptv_sims
        assert row.equal_quality  # exhaustive pure search on 8 configs

    def test_joint_row_never_loses_to_heuristic(self, result):
        row = result.verify_row("matmul-32 (joint)")
        assert row.pure_strategy == "heuristic"
        assert row.ptv_best <= row.heuristic_objective
        assert row.space_size > row.ptv_sims

    def test_format_and_smoke_line(self, result):
        text = result.format()
        assert "spearman" in text
        assert "Predict-then-verify" in text
        assert text.endswith(result.smoke_line())
        # smoke line keys off the requested programs when the default
        # smoke kernel is not among them
        assert result.smoke_program == "dot"
        assert "[model] smoke kernel=dot" in result.smoke_line()

    def test_executor_threaded_through(self):
        ex = SweepExecutor(workers=1)
        ext_model.run(
            quick=True, programs=["dot"], budget=4, scale=5, matmul_n=32,
            executor=ex,
        )
        assert ex.history
        assert ex.predictions > 0


class TestBuildJointSpace:
    def test_heuristic_config_is_a_space_point(self):
        space, baseline = ext_model.build_joint_space(32)
        assert space.contains(baseline)
        names = [d.name for d in space.dimensions]
        assert names == ["tile:w", "tile:h", "pad:B", "pad:C"]


class TestCli:
    def test_main_ext_model(self, capsys, tmp_path):
        rc = main([
            "ext_model", "--quick", "--budget", "6", "--workers", "1",
            "--cache-dir", str(tmp_path / "cache"), "--out", str(tmp_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[model] smoke kernel=" in out
        assert (tmp_path / "ext_model.txt").exists()

