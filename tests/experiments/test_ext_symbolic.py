"""The ext_symbolic experiment: agreement table, cross-validation, smoke line."""

from __future__ import annotations

import re

import pytest

from repro.exec.executor import SweepExecutor
from repro.experiments import ext_symbolic
from repro.experiments.ext_symbolic import CROSSVAL_HIERARCHIES, SymbolicResult


@pytest.fixture(scope="module")
def result() -> SymbolicResult:
    # Small but real: the quick pad sweep plus a handful of fuzz cases,
    # sequential executor, no store (wall-clock comparisons must be raw).
    return ext_symbolic.run(
        quick=True,
        executor=SweepExecutor(workers=1, store=None),
        workers=1,
        seed=0,
        count=6,
    )


class TestRun:
    def test_zero_exact_disagreements(self, result):
        # The whole point of the tier: exact claims match the simulator.
        assert result.exact_disagreements == 0

    def test_agreement_table_covers_the_pad_sweep(self, result):
        assert result.rows
        # Every row belongs to a (program, version, level) triple and
        # exact rows agree bitwise by construction of the gate above.
        for row in result.rows:
            assert row.level in {"L1", "L2", "Mem"} or row.level
            if row.exact:
                assert row.agrees

    def test_fuzz_crossval_accounting(self, result):
        assert result.programs == 6
        assert result.fuzz_cases == 6 * len(CROSSVAL_HIERARCHIES)
        assert result.fuzz_exact + result.fuzz_downgraded == result.fuzz_cases
        assert result.fuzz_checked == result.fuzz_exact
        assert result.fuzz_exact > 0  # the roomy hierarchy guarantees some

    def test_walls_are_measured(self, result):
        assert result.sym_wall > 0
        assert result.sim_wall > 0
        assert result.speedup > 0


class TestSmokeLine:
    def test_format_is_grepable(self, result):
        line = result.smoke_line()
        assert line.startswith("[symbolic] smoke ")
        m = re.search(
            r"seed=(\d+) programs=(\d+) cases=(\d+) exact=(\d+) "
            r"checked=(\d+) exact_disagreements=(\d+) downgraded=(\d+) "
            r"speedup=([\d.]+|inf)x$",
            line,
        )
        assert m, line
        assert int(m.group(1)) == 0
        assert int(m.group(2)) == 6
        assert int(m.group(6)) == 0

    def test_report_embeds_smoke_line(self, result):
        text = result.format()
        assert result.smoke_line() in text
        assert "Table 1 pad sweep" in text
        assert "Fuzz cross-validation" in text
