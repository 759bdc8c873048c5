"""Vectorized trace generator vs the naive interpreter (ground truth)."""

from unittest import mock

import numpy as np
import pytest

from repro import DataLayout, ProgramBuilder
from repro.cache.assoc import replay_hierarchy
from repro.cache.config import CacheConfig, HierarchyConfig, LineChunk
from repro.cache.streaming import StreamingHierarchy
from repro.errors import IRError
from repro.ir.affine import var
from repro.ir.loops import Loop
from repro.trace import generator
from repro.trace.generator import (
    generate_trace,
    program_line_chunks,
    program_trace_chunks,
)
from repro.trace.interpreter import interpret_program


def rectangular_program():
    b = ProgramBuilder("rect")
    A = b.array("A", (7, 9))
    B = b.array("B", (9,))
    i, j = b.vars("i", "j")
    b.nest(
        [b.loop(j, 2, 8), b.loop(i, 1, 7)],
        [
            b.assign(A[i, j], reads=[A[i, j - 1], B[j]], flops=1),
            b.use(reads=[B[j - 1]], flops=0),
        ],
    )
    return b.build()


def triangular_program():
    b = ProgramBuilder("tri")
    A = b.array("A", (12, 12))
    i, j, k = b.vars("i", "j", "k")
    b.nest(
        [b.loop(k, 1, 11), b.loop(j, k + 1, 12), b.loop(i, k + 1, 12)],
        [b.assign(A[i, j], reads=[A[i, k], A[k, j]], flops=2)],
    )
    return b.build()


def strided_reverse_program():
    b = ProgramBuilder("strided")
    A = b.array("A", (20,))
    (i,) = b.vars("i")
    b.nest([b.loop(i, 19, 1, step=-3)], [b.use(reads=[A[i]])])
    b.nest([b.loop(i, 2, 20, step=2)], [b.assign(A[i], reads=[A[i - 1]])])
    return b.build()


PROGRAMS = {
    "rectangular": rectangular_program,
    "triangular": triangular_program,
    "strided": strided_reverse_program,
}


class TestAgainstInterpreter:
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_matches_interpreter(self, name):
        prog = PROGRAMS[name]()
        layout = DataLayout.sequential(prog)
        np.testing.assert_array_equal(
            generate_trace(prog, layout), interpret_program(prog, layout)
        )

    @pytest.mark.parametrize("chunk", [1, 3, 17, 100, 10_000])
    def test_chunking_never_changes_the_trace(self, chunk):
        prog = rectangular_program()
        layout = DataLayout.sequential(prog)
        expected = interpret_program(prog, layout)
        got = generate_trace(prog, layout, max_chunk_refs=chunk)
        np.testing.assert_array_equal(got, expected)

    def test_layout_shifts_addresses(self):
        prog = rectangular_program()
        base = DataLayout.sequential(prog)
        shifted = base.add_pad("A", 64)
        t0 = generate_trace(prog, base)
        t1 = generate_trace(prog, shifted)
        assert t1.size == t0.size
        assert (t1 >= t0).all()  # everything moved up or stayed


class TestChunkStructure:
    def test_chunk_budget_respected(self):
        prog = rectangular_program()
        layout = DataLayout.sequential(prog)
        nest = prog.nests[0]
        for chunk in program_trace_chunks(prog, layout, max_chunk_refs=10):
            # Budget can only be exceeded by a single iteration's refs.
            assert chunk.size <= max(10, nest.refs_per_iteration)

    def test_short_rows_pack_into_full_batches(self):
        """Rows below the big-row threshold are packed up to the budget:
        200 two-reference rows in a budget of 64 make chunks of exactly
        32 rows (the last one shorter)."""
        b = ProgramBuilder("short-rows")
        A = b.array("A", (201,))
        i, j = b.vars("i", "j")
        b.nest([b.loop(j, 1, 200), b.loop(i, j, j)], [b.use(reads=[A[i], A[j]])])
        prog = b.build()
        layout = DataLayout.sequential(prog)
        chunks = list(program_trace_chunks(prog, layout, max_chunk_refs=64))
        assert [c.size for c in chunks] == [64] * 6 + [16]
        np.testing.assert_array_equal(
            np.concatenate(chunks), interpret_program(prog, layout)
        )

    def test_invalid_budget_rejected(self):
        prog = rectangular_program()
        layout = DataLayout.sequential(prog)
        with pytest.raises(IRError):
            list(program_trace_chunks(prog, layout, max_chunk_refs=0))

    def test_interleaving_is_statement_order(self):
        b = ProgramBuilder("order")
        X = b.array("X", (4,))
        Y = b.array("Y", (4,))
        (i,) = b.vars("i")
        b.nest([b.loop(i, 1, 2)], [b.assign(Y[i], reads=[X[i]])])
        prog = b.build()
        layout = DataLayout.sequential(prog)
        trace = generate_trace(prog, layout)
        bx, by = layout.base("X"), layout.base("Y")
        np.testing.assert_array_equal(trace, [bx, by, bx + 8, by + 8])


class TestMinBounds:
    def test_tiled_style_min_bound(self):
        from repro.ir.affine import const
        from repro.ir.loops import Loop, LoopNest, Statement
        from repro.ir.refs import ArrayRef

        b = ProgramBuilder("minb")
        b.array("A", (10,))
        ii, i = var("ii"), var("i")
        nest = LoopNest(
            loops=(
                Loop("ii", const(1), const(10), step=4),
                Loop("i", ii, ii + 3, extra_uppers=(const(10),)),
            ),
            body=(Statement((ArrayRef("A", (i,)),)),),
        )
        prog = b.build().with_nests([nest])
        layout = DataLayout.sequential(prog)
        trace = generate_trace(prog, layout)
        expected = interpret_program(prog, layout)
        np.testing.assert_array_equal(trace, expected)
        assert trace.size == 10  # 4 + 4 + 2 iterations, one ref each


SMALL = HierarchyConfig((
    CacheConfig(size=4096, line_size=32, name="L1"),
    CacheConfig(size=16384, line_size=64, name="L2"),
))


def trace_slices(chunks: list, trace: np.ndarray) -> list:
    """Each line chunk beside the slice of the address trace it stands
    for, at the cumulative ``len(chunk)`` offsets; the chunks must tile
    the trace."""
    ends = np.cumsum([0] + [len(c) for c in chunks]).tolist()
    assert ends[-1] == trace.size
    return [(c, trace[a:b]) for c, a, b in zip(chunks, ends, ends[1:])]


class TestLineChunks:
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    @pytest.mark.parametrize("budget", [5, 64, 10_000])
    def test_kept_lines_are_the_address_chunks_at_their_positions(self, name, budget):
        """Line chunks tile the address trace, and each one's lines are
        the unit lines of the trace slice it stands for at its kept
        positions, at most the budget of them."""
        prog = PROGRAMS[name]()
        layout = DataLayout.sequential(prog, origin=1 << 12)
        lined = list(program_line_chunks(prog, layout, SMALL, budget))
        for chunk, addresses in trace_slices(lined, generate_trace(prog, layout)):
            assert isinstance(chunk, LineChunk) and chunk.lines.dtype == np.int32
            assert chunk.lines.size <= budget
            np.testing.assert_array_equal(
                chunk.lines, addresses[chunk.positions()] // 32
            )

    @pytest.mark.parametrize("name", ["rectangular", "triangular"])
    def test_rectangular_and_ragged_nests_drop_hits(self, name):
        """8-byte elements on 32-byte lines: unit-stride references
        repeat their line, in the triangular nest's ragged rows too."""
        prog = PROGRAMS[name]()
        layout = DataLayout.sequential(prog, origin=1 << 12)
        chunks = list(program_line_chunks(prog, layout, SMALL, 64))
        assert sum(c.dropped for c in chunks) > 0

    @pytest.mark.parametrize("rows", [32, 34], ids=["exceptions", "alternating"])
    def test_pieces_of_several_phase_patterns(self, rows):
        """``A(i, j)`` against ``B(i, 2j)`` on a 1 KB L1: the delta
        between them meets a multiple of the cache every few columns,
        so a few segments may not drop ``A`` or ``B``; with 34-row
        columns the phase of ``A`` also alternates by column."""
        config = HierarchyConfig((
            CacheConfig(size=1024, line_size=32, name="L1"),
            CacheConfig(size=8192, line_size=64, name="L2"),
        ))
        b = ProgramBuilder("phases")
        A, B = b.array("A", (rows, 40)), b.array("B", (32, 82))
        i, j = b.vars("i", "j")
        b.nest([Loop("j", 1, 40), Loop("i", 1, 32)], [b.use(reads=[A[i, j], B[i, 2 * j]])])
        prog = b.build()
        layout = DataLayout.sequential(prog)
        with mock.patch.object(
            generator, "_one_pattern", wraps=generator._one_pattern
        ) as gathers:
            lined = list(program_line_chunks(prog, layout, config, 256))
        assert gathers.call_count > len(lined)  # several patterns a piece
        for chunk, addresses in trace_slices(lined, generate_trace(prog, layout)):
            np.testing.assert_array_equal(chunk.lines, addresses[chunk.positions()] // 32)
        assert sum(c.dropped for c in lined) > 0
        result = StreamingHierarchy(config).feed_all(lined).result()
        assert result == replay_hierarchy(config, program_trace_chunks(prog, layout, 256))

    def test_a_segment_over_the_budget_is_split(self):
        """A budget of 64 lines cuts 256-reference pieces of a 512-trip
        loop, one segment each.  ``A(i)``, 16-byte elements on 32-byte
        lines, would keep 128 lines of a segment, so the cut caps each
        at 64 iterations; ``B(i)``, a line per access, drops nothing,
        and its segments are sliced as addresses."""
        b = ProgramBuilder("long")
        A = b.array("A", (512,), element_size=16)
        B = b.array("B", (512,), element_size=32)
        (i,) = b.vars("i")
        b.nest([Loop("i", 1, 512)], [b.use(reads=[A[i]])])
        b.nest([Loop("i", 1, 512)], [b.use(reads=[B[i]])])
        prog = b.build()
        layout = DataLayout.sequential(prog, origin=1 << 12)
        with mock.patch.object(
            generator._Segments, "capped", autospec=True,
            side_effect=generator._Segments.capped,
        ) as capped:
            lined = list(program_line_chunks(prog, layout, SMALL, 64))
        assert capped.call_count == 2
        assert [c.lines.size for c in lined] == [64] * 12
        for chunk, addresses in trace_slices(lined, generate_trace(prog, layout)):
            np.testing.assert_array_equal(chunk.lines, addresses[chunk.positions()] // 32)
        assert sum(c.dropped for c in lined) == 256
        result = StreamingHierarchy(SMALL).feed_all(lined).result()
        assert result == replay_hierarchy(SMALL, program_trace_chunks(prog, layout))
