"""Property tests: reordering transforms preserve the access multiset.

Every pure reordering transform (tiling, fusion, time tiling) must
leave the multiset of touched addresses unchanged -- only the order may
differ.  Hypothesis drives the shapes.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DataLayout, ProgramBuilder
from repro.trace.generator import generate_trace
from repro.transforms.fusion import fuse_nests
from repro.transforms.tiling import tile_nest
from repro.transforms.timetile import time_tile


def matmul_like(n):
    b = ProgramBuilder("mm")
    A = b.array("A", (n, n))
    Bm = b.array("B", (n, n))
    C = b.array("C", (n, n))
    i, j, k = b.vars("i", "j", "k")
    b.nest(
        [b.loop(j, 1, n), b.loop(k, 1, n), b.loop(i, 1, n)],
        [b.assign(C[i, j], reads=[C[i, j], A[i, k], Bm[k, j]], flops=2)],
    )
    return b.build()


# One statement: (written array, offsets), [(read array, offsets), ...];
# offsets in {-1, 0, 1} per dimension stay inside the padded arrays.
_offset = st.tuples(st.integers(-1, 1), st.integers(-1, 1))
_ref = st.tuples(st.sampled_from("ABC"), _offset)
_statement = st.tuples(_ref, st.lists(_ref, min_size=0, max_size=2))
_body = st.lists(_statement, min_size=1, max_size=3)


def two_conformable_nests(n, body_a, body_b):
    """Two nests over the same 2..n x 2..n space, the second with its own
    loop variable names (fusion renames them onto the first's)."""
    b = ProgramBuilder("pair")
    arrays = {name: b.array(name, (n + 1, n + 1)) for name in "ABC"}
    i, j, p, q = b.vars("i", "j", "p", "q")

    def statements(body, row, col):
        def ref(name, off):
            return arrays[name][row + off[0], col + off[1]]

        return [
            b.assign(ref(*target), reads=[ref(*r) for r in reads], flops=1)
            for target, reads in body
        ]

    b.nest([b.loop(j, 2, n), b.loop(i, 2, n)], statements(body_a, i, j))
    b.nest([b.loop(q, 2, n), b.loop(p, 2, n)], statements(body_b, p, q))
    return b.build()


def sorted_trace(prog):
    return np.sort(generate_trace(prog, DataLayout.sequential(prog)))


class TestMultisetPreservation:
    @given(
        n=st.integers(4, 10),
        tw=st.integers(1, 12),
        th=st.integers(1, 12),
    )
    @settings(max_examples=30, deadline=None)
    def test_tiling(self, n, tw, th):
        prog = matmul_like(n)
        tiled = prog.with_nests(
            [tile_nest(prog.nests[0], [("k", tw), ("i", th)])]
        )
        np.testing.assert_array_equal(sorted_trace(prog), sorted_trace(tiled))

    @given(n=st.integers(2, 9), body_a=_body, body_b=_body)
    @settings(max_examples=40, deadline=None)
    def test_fusion(self, n, body_a, body_b):
        prog = two_conformable_nests(n, body_a, body_b)
        fused = fuse_nests(prog, 0, 1, check="none")
        assert len(fused.nests) == 1
        np.testing.assert_array_equal(sorted_trace(prog), sorted_trace(fused))

    @given(
        n=st.integers(6, 14),
        t=st.integers(2, 4),
        block=st.integers(1, 8),
        skew=st.integers(0, 2),
    )
    @settings(max_examples=25, deadline=None)
    def test_time_tile(self, n, t, block, skew):
        b = ProgramBuilder("ts")
        A = b.array("A", (n, n))
        i, j, tt = b.vars("i", "j", "t")
        b.nest(
            [b.loop(tt, 1, t), b.loop(j, 2, n - 1), b.loop(i, 1, n)],
            [b.assign(A[i, j], reads=[A[i, j - 1]], flops=1)],
        )
        prog = b.build()
        tiled = prog.with_nests(
            [time_tile(prog.nests[0], "t", "j", block=block, skew=skew)]
        )
        np.testing.assert_array_equal(sorted_trace(prog), sorted_trace(tiled))
