"""MAXPAD and L2MAXPAD."""

import pytest

from repro import CacheDiagram, DataLayout, simulate_program, ultrasparc_i
from repro.errors import TransformError
from repro.transforms.grouppad import grouppad
from repro.transforms.maxpad import l2maxpad, maxpad
from tests.conftest import build_fig2


@pytest.fixture(scope="module")
def hier():
    return ultrasparc_i()


class TestMaxPad:
    def test_even_spacing_exact(self, hier):
        prog = build_fig2(896)
        seq = DataLayout.sequential(prog)
        out = maxpad(prog, seq, cache_size=hier.l2.size)
        positions = sorted(b % hier.l2.size for b in out.bases().values())
        third = hier.l2.size // 3
        gaps = [b - a for a, b in zip(positions, positions[1:])]
        gaps.append(hier.l2.size - positions[-1] + positions[0])
        for g in gaps:
            assert abs(g - third) <= third // 2  # roughly even

    def test_pad_multiple_respected(self, hier):
        prog = build_fig2(896)
        seq = DataLayout.sequential(prog)
        out = maxpad(prog, seq, cache_size=hier.l2.size, pad_multiple=4096)
        for name in (a.name for a in prog.arrays):
            assert (out.base(name) - seq.base(name)) % 4096 == 0

    def test_invalid_pad_multiple(self, hier):
        prog = build_fig2(64)
        seq = DataLayout.sequential(prog)
        with pytest.raises(TransformError):
            maxpad(prog, seq, cache_size=hier.l2.size, pad_multiple=3000)


class TestL2MaxPad:
    def test_l1_layout_preserved_exactly(self, hier):
        """The headline property (Section 3.2.2): pads are multiples of
        S1, so every base address is unchanged modulo the L1 cache."""
        prog = build_fig2(896)
        gp = grouppad(prog, DataLayout.sequential(prog),
                      hier.l1.size, hier.l1.line_size)
        out = l2maxpad(prog, gp, hier)
        for name in (a.name for a in prog.arrays):
            assert (out.base(name) - gp.base(name)) % hier.l1.size == 0

    def test_l1_miss_rate_unchanged(self, hier):
        """Figure 10: 'optimizing for the L2 cache does not adversely
        affect L1 miss rates' -- here it is exactly invariant."""
        prog = build_fig2(320)
        gp = grouppad(prog, DataLayout.sequential(prog),
                      hier.l1.size, hier.l1.line_size)
        out = l2maxpad(prog, gp, hier)
        r_before = simulate_program(prog, gp, hier)
        r_after = simulate_program(prog, out, hier)
        assert r_after.miss_rate("L1") == pytest.approx(
            r_before.miss_rate("L1"), abs=1e-12
        )

    def test_preserves_all_group_reuse_on_l2(self, hier):
        """Figure 5: with columns a small fraction of the L2 cache,
        maximal separation preserves *all* group reuse at that level."""
        prog = build_fig2(896)  # column 7 KB on a 512 KB L2
        gp = grouppad(prog, DataLayout.sequential(prog),
                      hier.l1.size, hier.l1.line_size)
        out = l2maxpad(prog, gp, hier)
        for nest in prog.nests:
            d = CacheDiagram(prog, out, nest, hier.l2.size, hier.l2.line_size)
            assert d.exploited_count == d.arc_count

    def test_requires_l2(self):
        from repro.cache.config import CacheConfig, HierarchyConfig

        prog = build_fig2(64)
        seq = DataLayout.sequential(prog)
        single = HierarchyConfig(levels=(CacheConfig(size=1024, line_size=32),))
        with pytest.raises(TransformError):
            l2maxpad(prog, seq, single)
