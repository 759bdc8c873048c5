"""Vectorized trace generator vs the naive interpreter (ground truth)."""

import numpy as np
import pytest

from repro import DataLayout, ProgramBuilder
from repro.cache.config import segment_shape
from repro.errors import IRError
from repro.ir.affine import var
from repro.trace.generator import generate_trace, nest_trace_chunks
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
        for chunk in nest_trace_chunks(prog, layout, nest, max_chunk_refs=10):
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
        chunks = list(nest_trace_chunks(prog, layout, prog.nests[0], max_chunk_refs=64))
        assert [c.size for c in chunks] == [64] * 6 + [16]
        np.testing.assert_array_equal(
            np.concatenate(chunks), interpret_program(prog, layout)
        )

    def test_invalid_budget_rejected(self):
        prog = rectangular_program()
        layout = DataLayout.sequential(prog)
        with pytest.raises(IRError):
            list(nest_trace_chunks(prog, layout, prog.nests[0], max_chunk_refs=0))

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


class TestSegmentTags:
    def test_rectangular_chunks_carry_their_inner_loop_shape(self):
        prog = rectangular_program()
        layout = DataLayout.sequential(prog)
        chunks = list(nest_trace_chunks(prog, layout, prog.nests[0]))
        # 7 iterations of the inner loop x 4 references per iteration.
        assert [segment_shape(c) for c in chunks] == [(7, 4)]
        assert all(c.dtype == np.int64 and c.ndim == 1 for c in chunks)

    def test_ragged_batches_carry_none(self):
        prog = triangular_program()
        layout = DataLayout.sequential(prog)
        chunks = list(nest_trace_chunks(prog, layout, prog.nests[0]))
        assert chunks and all(segment_shape(c) is None for c in chunks)
