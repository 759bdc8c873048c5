"""Loop fusion: headers, legality, rewriting."""

import numpy as np
import pytest

from repro import DataLayout, ProgramBuilder
from repro.errors import TransformError
from repro.trace.generator import generate_trace
from repro.transforms.fusion import (
    can_fuse,
    fuse_nests,
    fusion_dependence_ok,
)
from tests.conftest import build_fig2


def independent_pair(n=16):
    """Two nests over disjoint arrays: trivially legal to fuse."""
    b = ProgramBuilder("indep")
    A = b.array("A", (n, n))
    Bm = b.array("B", (n, n))
    X = b.array("X", (n, n))
    Y = b.array("Y", (n, n))
    i, j = b.vars("i", "j")
    b.nest([b.loop(j, 1, n), b.loop(i, 1, n)],
           [b.assign(A[i, j], reads=[X[i, j]], flops=1)], label="n1")
    b.nest([b.loop(j, 1, n), b.loop(i, 1, n)],
           [b.assign(Bm[i, j], reads=[Y[i, j]], flops=1)], label="n2")
    return b.build()


class TestHeaders:
    def test_compatible_headers(self):
        prog = independent_pair()
        assert can_fuse(prog.nests[0], prog.nests[1])

    def test_renamed_loop_vars_still_compatible(self):
        b = ProgramBuilder("ren")
        A = b.array("A", (8,))
        Bm = b.array("B", (8,))
        i, k = b.vars("i", "k")
        b.nest([b.loop(i, 1, 8)], [b.use(reads=[A[i]])])
        b.nest([b.loop(k, 1, 8)], [b.use(reads=[Bm[k]])])
        prog = b.build()
        assert can_fuse(prog.nests[0], prog.nests[1])
        fused = fuse_nests(prog, 0, 1)
        assert len(fused.nests) == 1
        # Second body rewritten onto the first nest's loop variable.
        assert fused.nests[0].refs[1].variables == ("i",)

    def test_mismatched_bounds_incompatible(self):
        b = ProgramBuilder("mb")
        A = b.array("A", (9,))
        (i,) = b.vars("i")
        b.nest([b.loop(i, 1, 8)], [b.use(reads=[A[i]])])
        b.nest([b.loop(i, 1, 9)], [b.use(reads=[A[i]])])
        prog = b.build()
        assert not can_fuse(prog.nests[0], prog.nests[1])
        with pytest.raises(TransformError):
            fuse_nests(prog, 0, 1, check="none")

    def test_mismatched_depth_incompatible(self):
        b = ProgramBuilder("md")
        A = b.array("A", (8, 8))
        i, j = b.vars("i", "j")
        b.nest([b.loop(j, 1, 8), b.loop(i, 1, 8)], [b.use(reads=[A[i, j]])])
        b.nest([b.loop(i, 1, 8)], [b.use(reads=[A[i, i]])])
        prog = b.build()
        assert not can_fuse(prog.nests[0], prog.nests[1])


class TestLegality:
    def test_independent_bodies_legal(self):
        prog = independent_pair()
        assert fusion_dependence_ok(prog, prog.nests[0], prog.nests[1])

    def test_fig2_dependence_rejected_in_strict_mode(self):
        """Nest 1 rewrites B(i,j); nest 2 reads B(i,j+1), which nest 1
        writes on a *later* iteration: fusion reverses that dependence."""
        prog = build_fig2(64)
        # Make the dependence real: nest 1 writes B.
        b = ProgramBuilder("dep")
        B = b.array("B", (8, 8))
        i, j = b.vars("i", "j")
        b.nest([b.loop(j, 2, 7), b.loop(i, 1, 8)],
               [b.assign(B[i, j], reads=[B[i, j + 1]], flops=1)])
        b.nest([b.loop(j, 2, 7), b.loop(i, 1, 8)],
               [b.use(reads=[B[i, j + 1]], flops=1)])
        prog = b.build()
        assert not fusion_dependence_ok(prog, prog.nests[0], prog.nests[1])
        with pytest.raises(TransformError):
            fuse_nests(prog, 0, 1)  # strict by default
        fused = fuse_nests(prog, 0, 1, check="none")  # the paper's usage
        assert len(fused.nests) == 1

    def test_forward_dependence_legal(self):
        """Reading what the first nest wrote at the same iteration is fine."""
        b = ProgramBuilder("fwd")
        A = b.array("A", (8,))
        Bm = b.array("B", (8,))
        (i,) = b.vars("i")
        b.nest([b.loop(i, 1, 8)], [b.assign(A[i], reads=[Bm[i]], flops=1)])
        b.nest([b.loop(i, 1, 8)], [b.assign(Bm[i], reads=[A[i]], flops=1)])
        prog = b.build()
        assert fusion_dependence_ok(prog, prog.nests[0], prog.nests[1])

    def test_backward_read_legal(self):
        """Nest 2 reading A(i-1) written by nest 1 at an earlier iteration
        keeps its dependence direction under fusion."""
        b = ProgramBuilder("back")
        A = b.array("A", (9,))
        Bm = b.array("B", (9,))
        (i,) = b.vars("i")
        b.nest([b.loop(i, 2, 9)], [b.assign(A[i], reads=[Bm[i]], flops=1)])
        b.nest([b.loop(i, 2, 9)], [b.use(reads=[A[i - 1]], flops=1)])
        prog = b.build()
        assert fusion_dependence_ok(prog, prog.nests[0], prog.nests[1])


class TestRewriting:
    def test_fused_trace_is_interleaved(self):
        prog = independent_pair(4)
        lay = DataLayout.sequential(prog)
        fused = fuse_nests(prog, 0, 1)
        t = generate_trace(fused, lay)
        # Same refs overall, different order.
        np.testing.assert_array_equal(
            np.sort(t), np.sort(generate_trace(prog, lay))
        )
        assert len(fused.nests) == 1
        assert fused.nests[0].refs_per_iteration == 4

    def test_fuse_all_stops_at_illegal(self):
        b = ProgramBuilder("mix")
        A = b.array("A", (8,))
        (i,) = b.vars("i")
        b.nest([b.loop(i, 1, 8)], [b.assign(A[i], reads=[A[i]], flops=1)])
        b.nest([b.loop(i, 1, 4)], [b.use(reads=[A[i]])])  # header mismatch
        prog = b.build()
        assert not can_fuse(*prog.nests)
        with pytest.raises(TransformError):
            fuse_nests(prog, 0, 1)

    def test_non_adjacent_rejected(self):
        prog = independent_pair()
        with pytest.raises(TransformError):
            fuse_nests(prog, 0, 0)

    def test_unknown_check_mode(self):
        prog = independent_pair()
        with pytest.raises(TransformError):
            fuse_nests(prog, 0, 1, check="maybe")
