"""Fusion accounting: the paper's Section 4 walkthrough, verbatim.

The paper counts, for the Figure 2 program under GROUPPAD+L2MAXPAD-style
layouts: 5 memory references + 2 L2 references before fusion, and 3 memory
+ 3 L2 references after (Figures 4 and 7).  These tests pin our model to
those exact numbers.
"""

import pytest

from repro import DataLayout, ultrasparc_i
from repro.analysis.costmodel import MissCostModel
from repro.analysis.fusionmodel import (
    account_nest,
    account_nests,
    fusion_delta,
    fusion_profitable,
)
from repro.transforms.fusion import fuse_nests
from repro.transforms.grouppad import grouppad
from tests.conftest import build_fig2

# Figure 3/4 scale: "the cache size is slightly more than double the
# common column size".  Column = 896*8 = 7 KB on the 16 KB L1.
N = 896
L1, LINE = 16 * 1024, 32


@pytest.fixture(scope="module")
def setup():
    prog = build_fig2(N)
    layout = grouppad(prog, DataLayout.sequential(prog), L1, LINE)
    fused = fuse_nests(prog, 0, 1, check="none")
    fused_layout = grouppad(fused, DataLayout.sequential(fused), L1, LINE)
    return prog, layout, fused, fused_layout


class TestPaperNumbers:
    def test_unfused_memory_refs_is_5(self, setup):
        prog, layout, _, _ = setup
        acct = account_nests(prog, layout, prog.nests, L1, LINE)
        # A(i,j+1), B(i,j+1), C(i,j+1) in nest 1; B(i,j+1), C(i,j) in nest 2.
        assert acct.memory_refs == 5

    def test_unfused_trailing_refs_is_5(self, setup):
        """Five non-leading references exist before fusion: one per class
        in nest 1 (A, B, C) plus B(i,j-1) and B(i,j) in nest 2; each is
        either an L1 hit or an L2 reference depending on what GROUPPAD
        could preserve."""
        prog, layout, _, _ = setup
        acct = account_nests(prog, layout, prog.nests, L1, LINE)
        assert acct.l1_refs + acct.l2_refs == 5  # 3 (nest1) + 2 (nest2)

    def test_fused_memory_refs_is_3(self, setup):
        """'In the fused loop of Figure 7, 3 references, A(i,j+1),
        B(i,j+1), and C(i,j+1) must access main memory.'"""
        _, _, fused, fused_layout = setup
        acct = account_nest(fused, fused_layout, fused.nests[0], L1, LINE)
        assert acct.memory_refs == 3

    def test_fusion_saves_two_memory_refs(self, setup):
        """'Fusion has therefore saved two memory misses for arrays B and C.'"""
        prog, layout, fused, fused_layout = setup
        delta = fusion_delta(
            prog, layout, prog.nests, fused, fused_layout, fused.nests[0],
            L1, LINE,
        )
        assert delta.memory_refs == -2

    def test_fused_total_unique_refs_conserved(self, setup):
        _, _, fused, fused_layout = setup
        acct = account_nest(fused, fused_layout, fused.nests[0], L1, LINE)
        # Unique refs after fusion: A x2, B x3, C x2 = 7.
        assert acct.l1_refs + acct.l2_refs + acct.memory_refs == 7


class TestProfitability:
    def test_fusion_profitable_when_l2_misses_cost_more(self, setup):
        """Section 4: 'fusion will generally be profitable if it enables
        the compiler to exploit more L2 reuse', because L2 misses dominate."""
        prog, layout, fused, fused_layout = setup
        delta = fusion_delta(
            prog, layout, prog.nests, fused, fused_layout, fused.nests[0],
            L1, LINE,
        )
        model = MissCostModel.from_hierarchy(ultrasparc_i())
        assert fusion_profitable(delta, model)

    def test_fusion_unprofitable_when_l1_losses_dominate(self):
        """The tradeoff flips when the L1 group reuse lost (3 extra L2
        references) outweighs a small memory saving under a cost model
        where L2 misses are not much dearer than L1 misses."""
        from repro.analysis.fusionmodel import FusionDelta

        delta = FusionDelta(l2_refs=3, memory_refs=-1)
        flat_costs = MissCostModel(l1_miss_cost=10.0, l2_miss_cost=5.0)
        assert not fusion_profitable(delta, flat_costs)
        # With realistic (much dearer) memory costs it flips back.
        steep_costs = MissCostModel(l1_miss_cost=10.0, l2_miss_cost=100.0)
        assert fusion_profitable(delta, steep_costs)

    def test_accounting_cost_formula(self):
        from repro.analysis.fusionmodel import FusionDelta

        delta = FusionDelta(l2_refs=2, memory_refs=3)
        model = MissCostModel(l1_miss_cost=10.0, l2_miss_cost=100.0)
        # L2 refs pay an L1 miss; memory refs pay both.
        assert delta.cost_change(model) == (2 + 3) * 10.0 + 3 * 100.0
