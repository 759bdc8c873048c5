"""Kernel-specific structure: the properties the experiments rely on."""

import pytest

from repro import DataLayout, simulate_program, ultrasparc_i
from repro.kernels import dot, expl, jacobi, linpackd, matmul, shal
from repro.layout.conflicts import program_severe_conflicts
from repro.transforms.fusion import can_fuse


@pytest.fixture(scope="module")
def hier():
    return ultrasparc_i()


class TestDot:
    def test_default_vectors_resonant_on_both_caches(self, hier):
        prog = dot.build()
        for name in ("X", "Z"):
            size = prog.decl(name).size_bytes
            assert size % hier.l1.size == 0
            assert size % hier.l2.size == 0

    def test_pingpong_at_default_size(self, hier):
        prog = dot.build()
        r = simulate_program(prog, DataLayout.sequential(prog), hier)
        assert r.miss_rate("L1") == 1.0


class TestExpl:
    def test_nine_arrays_like_liv18(self):
        prog = expl.build(64)
        assert len(prog.arrays) == 9
        assert {a.name for a in prog.arrays} == {
            "ZA", "ZB", "ZM", "ZP", "ZQ", "ZR", "ZU", "ZV", "ZZ"
        }

    def test_resonant_at_512(self, hier):
        prog = expl.build(512)
        lay = DataLayout.sequential(prog)
        assert program_severe_conflicts(
            prog, lay, hier.l1.size, hier.l1.line_size
        ).count > 0

    def test_fusable_pair_headers_compatible(self):
        prog = expl.build(64)
        a, b = expl.FUSABLE_NESTS
        assert can_fuse(prog.nests[a], prog.nests[b])

    def test_fusable_pair_shares_arrays(self):
        prog = expl.build(64)
        a, b = expl.FUSABLE_NESTS
        shared = set(prog.nests[a].arrays_used()) & set(prog.nests[b].arrays_used())
        assert {"ZA", "ZB", "ZR"} <= shared


class TestJacobi:
    def test_two_arrays_collide_at_512(self, hier):
        prog = jacobi.build(512)
        lay = DataLayout.sequential(prog)
        assert (lay.base("B") - lay.base("A")) % hier.l1.size == 0


class TestLinpackd:
    def test_triangular_bounds(self):
        prog = linpackd.build(32)
        update = prog.nests[1]
        assert not update.is_rectangular
        # Iteration count of the k/j/i elimination: sum over k of (n-k)^2.
        n = 32
        assert update.iterations() == sum((n - k) ** 2 for k in range(1, n))


class TestShal:
    def test_thirteen_arrays(self):
        assert len(shal.build(32).arrays) == 13

    def test_heavy_group_reuse(self):
        from repro.analysis.groups import reuse_arcs

        prog = shal.build(64)
        total_arcs = sum(len(reuse_arcs(prog, nest)) for nest in prog.nests)
        assert total_arcs >= 6


class TestMatmul:
    def test_flop_count(self):
        prog = matmul.build(10)
        assert prog.total_flops() == 2 * 10**3

    def test_tiled_variant_same_refs(self):
        plain = matmul.build(12)
        tiled = matmul.build_tiled(12, 5, 4)
        assert tiled.total_refs() == plain.total_refs()
