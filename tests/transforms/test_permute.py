"""Loop permutation and the memory-order heuristic on Figure 1."""

import numpy as np
import pytest

from repro import DataLayout, ProgramBuilder, simulate_program, ultrasparc_i
from repro.errors import TransformError
from repro.trace.generator import generate_trace
from repro.transforms.permute import memory_order, permute_nest


def fig1_program(n=256, m=64):
    b = ProgramBuilder("fig1")
    A = b.array("A", (n, m))
    B = b.array("B", (n,))
    i, j = b.vars("i", "j")
    b.nest(
        [b.loop(j, 1, n), b.loop(i, 1, m)],
        [b.assign(B[j], reads=[A[j, i]], flops=1)],
    )
    return b.build()


class TestPermuteNest:
    def test_reorders_loops(self):
        prog = fig1_program()
        got = permute_nest(prog.nests[0], ["i", "j"])
        assert got.loop_vars == ("i", "j")

    def test_preserves_access_multiset(self):
        prog = fig1_program(32, 16)
        lay = DataLayout.sequential(prog)
        before = generate_trace(prog, lay)
        permuted = prog.with_nests([permute_nest(prog.nests[0], ["i", "j"])])
        after = generate_trace(permuted, lay)
        np.testing.assert_array_equal(np.sort(before), np.sort(after))
        assert not np.array_equal(before, after)  # order actually changed

    def test_not_a_permutation_rejected(self):
        prog = fig1_program()
        with pytest.raises(TransformError):
            permute_nest(prog.nests[0], ["i", "i"])

    def test_bound_dependence_blocks_permutation(self):
        b = ProgramBuilder("tri")
        A = b.array("A", (16, 16))
        i, k = b.vars("i", "k")
        b.nest(
            [b.loop(k, 1, 15), b.loop(i, k + 1, 16)],
            [b.use(reads=[A[i, k]])],
        )
        prog = b.build()
        with pytest.raises(TransformError):
            permute_nest(prog.nests[0], ["i", "k"])


class TestMemoryOrderOnFigure1:
    def test_fig1_moves_j_innermost(self):
        """The paper's Figure 1 permutation example."""
        prog = fig1_program()
        got = memory_order(prog, prog.nests[0], line_size=32)
        assert got.loop_vars == ("i", "j")

    def test_already_optimal_unchanged(self):
        prog = fig1_program()
        permuted = permute_nest(prog.nests[0], ["i", "j"])
        again = memory_order(prog, permuted, line_size=32)
        assert again == permuted

    def test_improves_simulated_misses(self):
        """'For large enough values of N, M, all levels of cache will
        benefit' (Section 2.1) -- with M spanning more lines than the L2
        holds, permutation must drop both miss rates.  (A scaled-down
        hierarchy keeps the trace small.)"""
        from repro.cache.config import CacheConfig, HierarchyConfig

        hier = HierarchyConfig(
            levels=(
                CacheConfig(size=1024, line_size=32, name="L1"),
                CacheConfig(size=8192, line_size=64, name="L2"),
            )
        )
        prog = fig1_program(100, 512)
        lay = DataLayout.sequential(prog)
        before = simulate_program(prog, lay, hier)
        best = prog.with_nests([memory_order(prog, prog.nests[0], 32)])
        after = simulate_program(best, lay, hier)
        assert after.miss_rate("L1") < before.miss_rate("L1")
        assert after.miss_rate("L2") < before.miss_rate("L2")
