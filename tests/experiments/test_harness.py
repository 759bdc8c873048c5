"""Experiment harness plumbing: formats, CLI, cycle model."""

import pytest

from repro.cache.config import ultrasparc_i
from repro.cache.stats import LevelStats, SimulationResult
from repro.experiments import table1_programs, timing
from repro.experiments.common import (
    estimated_cycles,
    improvement_pct,
    mflops,
)
from repro.experiments.fig13_tiling import TILE_VERSIONS, tile_for_version
from repro.experiments.__main__ import EXPERIMENTS, main


class TestCycleModel:
    def make_result(self):
        return SimulationResult(
            total_refs=1000,
            levels=(
                LevelStats("L1", 1000, 100),
                LevelStats("L2", 100, 10),
            ),
        )

    def test_estimated_cycles(self):
        hier = ultrasparc_i()
        got = estimated_cycles(self.make_result(), hier, flops=500)
        assert got == pytest.approx(1000 + 100 * 6 + 10 * 50 + 500 * 2)

    def test_mflops_inverse_to_cycles(self):
        assert mflops(1000, 2000) < mflops(1000, 1000)

    def test_improvement_sign_convention(self):
        assert improvement_pct(100, 80) == pytest.approx(20.0)
        assert improvement_pct(100, 120) == pytest.approx(-20.0)
        assert improvement_pct(0, 10) == 0.0


class TestTable1:
    def test_runs_and_formats(self):
        result = table1_programs.run()
        text = result.format()
        assert "KERNELS" in text and "SPEC95" in text
        assert "linpackd" in text
        # 24 programs: 8 kernels + 8 NAS + 8 SPEC.
        assert len(result.rows) == 24


class TestFig13Helpers:
    def test_tile_versions_cover_paper(self):
        assert TILE_VERSIONS == ("Orig", "L1", "2xL1", "4xL1", "L2")

    def test_orig_has_no_tile(self):
        assert tile_for_version("Orig", 100, ultrasparc_i()) is None

    def test_capacity_scaling(self):
        hier = ultrasparc_i()
        t1 = tile_for_version("L1", 300, hier)
        t4 = tile_for_version("4xL1", 300, hier)
        assert t4.elements >= t1.elements

    def test_unknown_version_raises(self):
        with pytest.raises(KeyError):
            tile_for_version("3xL1", 100, ultrasparc_i())


class TestTiming:
    def test_wallclock_harness_runs(self):
        result = timing.run(quick=True, repeats=1)
        assert set(result.seconds) == {"dot", "jacobi"}
        for prog in result.seconds.values():
            assert all(t > 0 for t in prog.values())
        text = result.format()
        assert "improv%" in text


class TestCLI:
    def test_experiment_registry(self):
        assert set(EXPERIMENTS) == {
            "table1", "fig9", "fig10", "fig11", "fig12", "fig13", "timing",
            "threelevel", "tlb", "timetile",
            "ext_search", "ext_assoc", "ext_model", "ext_fuzz",
            "ext_symbolic",
        }

    def test_experiment_names_all_runs_each_once(self):
        from repro.experiments.__main__ import experiment_names

        assert experiment_names("all") == sorted(EXPERIMENTS)
        # One module per verb: no experiment runs twice under "all".
        modules = [EXPERIMENTS[name] for name in experiment_names("all")]
        assert len(modules) == len(set(modules))

    def test_experiment_names_single_verb(self):
        from repro.experiments.__main__ import experiment_names

        assert experiment_names("fig9") == ["fig9"]

    def test_main_table1(self, capsys, tmp_path):
        rc = main(["table1", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "table1.txt").exists()
        assert "KERNELS" in capsys.readouterr().out

    def test_main_rejects_unknown(self):
        with pytest.raises(SystemExit):
            main(["fig99"])
