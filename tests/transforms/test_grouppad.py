"""GROUPPAD and its multi-level recursion."""

from types import SimpleNamespace

import pytest

from repro import CacheDiagram, DataLayout, simulate_program, ultrasparc_i
from repro.errors import TransformError
from repro.layout.conflicts import program_severe_conflicts
from repro.transforms.grouppad import grouppad, grouppad_recursive
from repro.transforms.pad import pad
from tests.conftest import build_fig2

L1, LINE = 16 * 1024, 32


def exploited_total(prog, layout, cache, line):
    return sum(
        CacheDiagram(prog, layout, nest, cache, line).exploited_count
        for nest in prog.nests
    )


@pytest.fixture(scope="module")
def hier():
    return ultrasparc_i()


@pytest.fixture(scope="module")
def fig3_scale():
    """Columns at 7 KB on the 16 KB cache (Figure 3's proportions)."""
    prog = build_fig2(896)
    return prog, DataLayout.sequential(prog)


class TestGroupPad:
    def test_avoids_severe_conflicts(self, fig3_scale):
        prog, seq = fig3_scale
        out = grouppad(prog, seq, L1, LINE)
        assert program_severe_conflicts(prog, out, L1, LINE).is_clean

    def test_beats_pad_on_exploited_arcs(self, fig3_scale):
        """GROUPPAD's objective: at least as many exploited arcs as PAD,
        whose small pads leave arcs covered (Figure 3 vs Figure 4)."""
        prog, seq = fig3_scale
        via_pad = pad(prog, seq, L1, LINE)
        via_gp = grouppad(prog, seq, L1, LINE)
        assert exploited_total(prog, via_gp, L1, LINE) >= exploited_total(
            prog, via_pad, L1, LINE
        )

    def test_exploits_b_reuse_in_nest2(self, fig3_scale):
        """Figure 4: 'all group reuse between B references is preserved'."""
        prog, seq = fig3_scale
        out = grouppad(prog, seq, L1, LINE)
        d = CacheDiagram(prog, out, prog.nests[1], L1, LINE)
        b_arcs = [a for a in d.arcs if a.reuse.array == "B"]
        assert all(a.exploited for a in b_arcs)

    def test_improves_miss_rate_over_pad(self, hier):
        prog = build_fig2(512)  # column 4K: cache holds 4 columns
        seq = DataLayout.sequential(prog)
        r_pad = simulate_program(prog, pad(prog, seq, L1, LINE), hier)
        r_gp = simulate_program(prog, grouppad(prog, seq, L1, LINE), hier)
        assert r_gp.miss_rate("L1") <= r_pad.miss_rate("L1") + 1e-9

    def test_refinement_never_loses_arcs(self, fig3_scale):
        prog, seq = fig3_scale
        greedy = grouppad(prog, seq, L1, LINE, refine_passes=0)
        refined = grouppad(prog, seq, L1, LINE, refine_passes=2)
        assert exploited_total(prog, refined, L1, LINE) >= exploited_total(
            prog, greedy, L1, LINE
        )

    def test_granularity_must_divide_cache(self, fig3_scale):
        prog, seq = fig3_scale
        with pytest.raises(TransformError):
            grouppad(prog, seq, L1, LINE, granularity=1000)

    @pytest.mark.parametrize(
        "cache, line", [(0, 32), (-L1, 32), (L1, 48), (L1, 0), (L1, -32)]
    )
    def test_invalid_cache_rejected_like_pad(self, fig3_scale, cache, line):
        """GROUPPAD rejects what PAD rejects, with the same error -- a zero
        or negative cache used to return the input layout unchanged."""
        prog, seq = fig3_scale
        with pytest.raises(TransformError, match="positive multiple of line size"):
            grouppad(prog, seq, cache, line)
        with pytest.raises(TransformError, match="positive multiple of line size"):
            pad(prog, seq, cache, line)


class TestGroupPadRecursive:
    def test_preserves_l1_layout_modulo_s1(self, fig3_scale, hier):
        prog, seq = fig3_scale
        l1_only = grouppad(prog, seq, hier.l1.size, hier.l1.line_size)
        multi = grouppad_recursive(prog, seq, hier)
        for name in (a.name for a in prog.arrays):
            assert (multi.base(name) - l1_only.base(name)) % hier.l1.size == 0

    def test_l2_exploitation_not_worse(self, fig3_scale, hier):
        prog, seq = fig3_scale
        l1_only = grouppad(prog, seq, hier.l1.size, hier.l1.line_size)
        multi = grouppad_recursive(prog, seq, hier)
        assert exploited_total(
            prog, multi, hier.l2.size, hier.l2.line_size
        ) >= exploited_total(prog, l1_only, hier.l2.size, hier.l2.line_size)

    def test_invalid_lower_level_rejected(self, fig3_scale, hier):
        """Every level the recursion scans is validated, not just the L1."""
        prog, seq = fig3_scale
        bad = SimpleNamespace(
            levels=(hier.l1, SimpleNamespace(size=hier.l2.size, line_size=0))
        )
        with pytest.raises(TransformError, match="positive multiple of line size"):
            grouppad_recursive(prog, seq, bad)
