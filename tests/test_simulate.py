"""Top-level simulate_program API and single-nest jobs."""

import pytest

from repro import DataLayout, SimJob, simulate_program, ultrasparc_i
from repro.cache.streaming import StreamingHierarchy
from repro.exec.executor import execute_one
from repro.trace.generator import program_line_chunks
from tests.conftest import build_fig2


class TestSimulateProgram:
    def test_matches_per_nest_sum(self):
        hier = ultrasparc_i()
        prog = build_fig2(128)
        lay = DataLayout.sequential(prog)
        whole = simulate_program(prog, lay, hier)
        assert whole.total_refs == prog.total_refs()

    def test_simulate_nest_cold(self):
        """A job on a program of one nest simulates that nest alone, cold."""
        hier = ultrasparc_i()
        prog = build_fig2(128)
        lay = DataLayout.sequential(prog)
        r0, r1 = (
            execute_one(SimJob(program=prog.with_nests([prog.nests[k]]), layout=lay,
                               hierarchy=hier), store=None)
            for k in (0, 1)
        )
        assert r0.total_refs == prog.nests[0].iterations() * 6
        assert r1.total_refs == prog.nests[1].iterations() * 4

    def test_chunk_size_invariance(self):
        hier = ultrasparc_i()
        prog = build_fig2(96)
        lay = DataLayout.sequential(prog)
        a = StreamingHierarchy(hier).feed_all(
            program_line_chunks(prog, lay, hier, 100)
        ).result()
        b = simulate_program(prog, lay, hier, store=None)
        assert a == b

    def test_version_exported(self):
        import repro

        assert repro.__version__
