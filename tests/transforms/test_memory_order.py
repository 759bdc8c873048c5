"""Full memory-order permutation."""

import pytest

from repro import ProgramBuilder
from repro.transforms.permute import memory_order


def triple_nest(order_hint=("k", "j", "i")):
    """C(i,j) += A(i,k): i carries unit stride, j none for A, k temporal for C."""
    b = ProgramBuilder("mm")
    n = 16
    A = b.array("A", (n, n))
    C = b.array("C", (n, n))
    i, j, k = b.vars("i", "j", "k")
    loops = {"i": b.loop(i, 1, n), "j": b.loop(j, 1, n), "k": b.loop(k, 1, n)}
    b.nest(
        [loops[v] for v in order_hint],
        [b.assign(C[i, j], reads=[C[i, j], A[i, k]], flops=2)],
    )
    return b.build()


class TestMemoryOrder:
    def test_unit_stride_loop_goes_innermost(self):
        prog = triple_nest(("i", "j", "k"))
        got = memory_order(prog, prog.nests[0], 32)
        assert got.loop_vars[-1] == "i"  # both refs unit-stride in i

    def test_order_is_full_ranking(self):
        prog = triple_nest(("i", "k", "j"))
        got = memory_order(prog, prog.nests[0], 32)
        # j scores lowest for A (no reuse? j is temporal for A, spatial
        # (column) for C) -- just require a legal permutation with i inner.
        assert sorted(got.loop_vars) == ["i", "j", "k"]
        assert got.loop_vars[-1] == "i"

    def test_idempotent(self):
        prog = triple_nest()
        once = memory_order(prog, prog.nests[0], 32)
        twice = memory_order(prog, once, 32)
        assert once.loop_vars == twice.loop_vars

    def test_triangular_dependence_respected(self):
        b = ProgramBuilder("tri")
        A = b.array("A", (20, 20))
        i, k = b.vars("i", "k")
        b.nest(
            [b.loop(k, 1, 19), b.loop(i, k + 1, 20)],
            [b.assign(A[i, k], reads=[A[i, k]], flops=1)],
        )
        prog = b.build()
        got = memory_order(prog, prog.nests[0], 32)
        # i's bound depends on k, so k must stay outside whatever the scores say.
        assert got.loop_vars.index("k") < got.loop_vars.index("i")
