"""Edge cases across modules that deserve explicit pinning."""

import numpy as np
import pytest

from repro import (
    CacheDiagram,
    DataLayout,
    ProgramBuilder,
    alpha_21164,
    ultrasparc_i,
)


class TestWrappedArcs:
    def test_arc_wrapping_the_cache_end(self):
        """An arc whose trailing dot sits near the top of the cache wraps
        around; a dot just after position 0 must still kill it."""
        b = ProgramBuilder("wrap")
        n = 512  # column = 4096 B on a 16 KB cache
        A = b.array("A", (n, 8))
        X = b.array("X", (16,))
        i, j = b.vars("i", "j")
        b.nest(
            [b.loop(j, 1, 7), b.loop(i, 1, n)],
            [b.use(reads=[A[i, j], A[i, j + 1], X[1]], flops=1)],
        )
        prog = b.build()
        cache = 16 * 1024
        # Put A's trailing ref at cache-2048: the arc spans into the wrap.
        lay = DataLayout.sequential(prog).with_pad("A", cache - 2048)
        # X lands somewhere; force it into the wrapped window.
        lay = lay.with_pad("X", 0)
        d = CacheDiagram(prog, lay, prog.nests[0], cache, 32)
        arc = next(a for a in d.arcs if a.reuse.array == "A")
        assert (arc.trail_pos + arc.reuse.distance_bytes) % cache == arc.lead_pos
        # Whatever the verdict, positions must be consistent modulo cache;
        # and moving X *inside* the wrapped interval must kill the arc.
        inside = (arc.trail_pos + 100) % cache
        base_x = lay.bases()["X"] % cache
        shift = (inside - base_x) % cache
        lay2 = lay.add_pad("X", shift)
        d2 = CacheDiagram(prog, lay2, prog.nests[0], cache, 32)
        arc2 = next(a for a in d2.arcs if a.reuse.array == "A")
        assert not arc2.exploited


class TestThreeLevelGroupPad:
    def test_recursive_grouppad_on_alpha(self):
        from repro.transforms.grouppad import grouppad_recursive

        hier = alpha_21164()
        b = ProgramBuilder("p3")
        n = 1024  # column 8 KB == the Alpha preset's L1
        A = b.array("A", (n, 8))
        Bm = b.array("B", (n, 8))
        i, j = b.vars("i", "j")
        b.nest(
            [b.loop(j, 1, 7), b.loop(i, 1, n)],
            [b.use(reads=[A[i, j], A[i, j + 1], Bm[i, j], Bm[i, j + 1]])],
        )
        prog = b.build()
        seq = DataLayout.sequential(prog)
        out = grouppad_recursive(prog, seq, hier)
        # Each later phase preserves all earlier layouts: mod L1, the
        # result equals the L1-only grouppad; mod L2, phase-3 changes
        # nothing below it.
        from repro.transforms.grouppad import grouppad

        l1_only = grouppad(prog, seq, hier.l1.size, hier.l1.line_size)
        for name in (a.name for a in prog.arrays):
            assert (out.base(name) - l1_only.base(name)) % hier.l1.size == 0


class TestTraceGeneratorEdges:
    def test_zero_trip_nest_empty_trace(self):
        from repro.trace.generator import generate_trace

        b = ProgramBuilder("empty")
        A = b.array("A", (4,))
        (i,) = b.vars("i")
        b.nest([b.loop(i, 5, 4)], [b.use(reads=[A[i]])])
        prog = b.build()
        assert generate_trace(prog, DataLayout.sequential(prog)).size == 0

    def test_single_iteration_nest(self):
        from repro.trace.generator import generate_trace

        b = ProgramBuilder("one")
        A = b.array("A", (4,))
        (i,) = b.vars("i")
        b.nest([b.loop(i, 2, 2)], [b.use(reads=[A[i]])])
        prog = b.build()
        trace = generate_trace(prog, DataLayout.sequential(prog))
        np.testing.assert_array_equal(trace, [8])

    def test_numpy_integer_inputs_accepted(self):
        b = ProgramBuilder("np")
        A = b.array("A", (np.int64(6),))
        (i,) = b.vars("i")
        b.nest([b.loop(i, np.int32(1), np.int64(6))], [b.use(reads=[A[i]])])
        prog = b.build()
        assert prog.total_refs() == 6


class TestFormattingEdges:
    def test_tabulate_bool_cells(self):
        from repro.util.tabulate import format_table

        text = format_table(["ok"], [[True], [False]])
        assert "True" in text and "False" in text

    def test_loop_repr_includes_step(self):
        from repro.ir.affine import const
        from repro.ir.loops import Loop

        assert "do i = 1, 9, 2" in repr(Loop("i", const(1), const(9), 2))

    def test_summary_on_empty_simulation(self):
        from repro.cache import StreamingHierarchy
        from repro.cache.config import LineChunk

        hier = ultrasparc_i()
        sim = StreamingHierarchy(hier)
        empty = LineChunk.from_addresses(np.array([], dtype=np.int64), hier)
        result = sim.feed_all([empty]).result()
        assert "refs=0" in result.summary()
