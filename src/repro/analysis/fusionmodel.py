"""Loop-fusion accounting (paper Sections 4 and 6.4).

For each nest, every *unique* reference is charged to one memory-hierarchy
level per iteration:

* the leading reference of each uniformly generated class (and every
  isolated reference) accesses **main memory** -- array sizes are assumed
  to exceed the L2 cache and capacity prevents inter-nest reuse;
* a trailing reference whose group-reuse arc is exploited on the L1
  layout diagram hits the **L1 cache**;
* a trailing reference whose arc is lost on L1 accesses the **L2 cache**
  -- the paper assumes L2MAXPAD has been applied, "so that all group reuse
  not exploited on the L1 cache was assumed to be preserved on the L2";
* duplicated identical references (which fusion creates) are charged only
  once -- "the second will access the L1 cache or a register".

Walking this model over the paper's Figure 2/6 example reproduces its
numbers exactly: 5 memory + 2 L2 references before fusion, 3 memory +
3 L2 after (see ``tests/analysis/test_fusionmodel.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.analysis.costmodel import MissCostModel
from repro.analysis.groups import uniform_classes
from repro.ir.loops import LoopNest
from repro.ir.program import Program
from repro.layout.layout import DataLayout

__all__ = ["FusionAccounting", "account_nests", "fusion_delta", "fusion_profitable"]


@dataclass(frozen=True)
class FusionAccounting:
    """Per-iteration reference counts by satisfying level."""

    l1_refs: int
    l2_refs: int
    memory_refs: int

    def __add__(self, other: "FusionAccounting") -> "FusionAccounting":
        return FusionAccounting(
            self.l1_refs + other.l1_refs,
            self.l2_refs + other.l2_refs,
            self.memory_refs + other.memory_refs,
        )


def account_nest(
    program: Program, layout: DataLayout, nest: LoopNest, l1_size: int, l1_line: int
) -> FusionAccounting:
    """Classify one nest's unique references against the L1 diagram."""
    from repro.layout.diagram import CacheDiagram  # lazy: avoids import cycle

    diagram = CacheDiagram(program, layout, nest, l1_size, l1_line)
    exploited = diagram.trailing_refs_exploited()
    l1 = l2 = mem = 0
    for cls in uniform_classes(program, nest):
        # Leading-most reference accesses memory (fresh data every iteration).
        mem += 1
        for ref in cls.refs[:-1]:
            if ref in exploited:
                l1 += 1
            else:
                l2 += 1
    return FusionAccounting(l1_refs=l1, l2_refs=l2, memory_refs=mem)


def account_nests(
    program: Program,
    layout: DataLayout,
    nests: Sequence[LoopNest],
    l1_size: int,
    l1_line: int,
) -> FusionAccounting:
    """Sum of :func:`account_nest` over several nests."""
    total = FusionAccounting(0, 0, 0)
    for nest in nests:
        total = total + account_nest(program, layout, nest, l1_size, l1_line)
    return total


@dataclass(frozen=True)
class FusionDelta:
    """Change caused by fusing (fused minus original), per iteration."""

    l2_refs: int
    memory_refs: int

    def cost_change(self, model: MissCostModel) -> float:
        return model.weighted(
            l1_misses=self.l2_refs + self.memory_refs,
            l2_misses=self.memory_refs,
        )


def fusion_delta(
    original_program: Program,
    original_layout: DataLayout,
    original_nests: Sequence[LoopNest],
    fused_program: Program,
    fused_layout: DataLayout,
    fused_nest: LoopNest,
    l1_size: int,
    l1_line: int,
) -> FusionDelta:
    """Δ(L2 refs) and Δ(memory refs) from fusing ``original_nests``.

    Each version is accounted under its *own* layout, since the paper
    re-runs GROUPPAD after fusion (Figure 7).
    """
    before = account_nests(
        original_program, original_layout, original_nests, l1_size, l1_line
    )
    after = account_nest(fused_program, fused_layout, fused_nest, l1_size, l1_line)
    return FusionDelta(
        l2_refs=after.l2_refs - before.l2_refs,
        memory_refs=after.memory_refs - before.memory_refs,
    )


def fusion_profitable(delta: FusionDelta, model: MissCostModel) -> bool:
    """Is fusion predicted to pay off?

    Fusion wins when the weighted cost change is negative: the L2/memory
    savings (scaled by the much larger L2 miss cost) outweigh any group
    reuse lost on the L1 cache (Section 4: "fusion will generally be
    profitable if it enables the compiler to exploit more L2 reuse").
    """
    return delta.cost_change(model) < 0.0
