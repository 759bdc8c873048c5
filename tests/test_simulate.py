"""Top-level simulate_program API and single-nest jobs."""

import pytest

from repro import DataLayout, SimJob, simulate_program, ultrasparc_i
from repro.exec.executor import execute_one
from tests.conftest import build_fig2


class TestSimulateProgram:
    def test_matches_per_nest_sum(self):
        hier = ultrasparc_i()
        prog = build_fig2(128)
        lay = DataLayout.sequential(prog)
        whole = simulate_program(prog, lay, hier)
        assert whole.total_refs == prog.total_refs()

    def test_simulate_nest_cold(self):
        """A job with ``nest_index`` simulates that nest alone, cold."""
        hier = ultrasparc_i()
        prog = build_fig2(128)
        lay = DataLayout.sequential(prog)
        r0, r1 = (
            execute_one(SimJob(program=prog, layout=lay, hierarchy=hier,
                               nest_index=k), store=None)
            for k in (0, 1)
        )
        assert r0.total_refs == prog.nests[0].iterations() * 6
        assert r1.total_refs == prog.nests[1].iterations() * 4

    def test_chunk_size_invariance(self):
        hier = ultrasparc_i()
        prog = build_fig2(96)
        lay = DataLayout.sequential(prog)
        a = simulate_program(prog, lay, hier, max_chunk_refs=100)
        b = simulate_program(prog, lay, hier)
        assert a == b

    def test_version_exported(self):
        import repro

        assert repro.__version__
