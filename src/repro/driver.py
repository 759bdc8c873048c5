"""The optimization driver: the paper's recipe as one call.

Chains the passes in the order the paper applies them (Section 6.1 and
the per-transformation sections) and records every decision:

1. **intra-variable padding** -- clear same-array resonance first, so
   inter-variable analysis is not masked (done for ADI32/ERLE64 in §6.1);
2. **loop permutation** (memory order) -- cache-size independent (§2.1);
3. **loop fusion** -- adjacent compatible nests, fused only when the
   group-reuse accounting scaled by miss costs says it pays (§4);
4. **inter-variable padding** -- GROUPPAD for the L1 cache, then, under
   the ``"L1&L2"`` strategy, L2MAXPAD for the second level (§3); the
   ``"PAD"`` strategy runs plain severe-conflict elimination instead.

The paper's conclusion -- "most locality transformations can usually
improve reuse for multiple levels of cache by simply targeting the
smallest usable level" -- is a testable statement about this driver: the
``"L1"`` and ``"L1&L2"`` strategies should land within a whisker of each
other (see ``tests/test_driver.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.costmodel import MissCostModel
from repro.analysis.fusionmodel import fusion_delta, fusion_profitable
from repro.cache.config import HierarchyConfig
from repro.errors import ReproError
from repro.ir.program import Program
from repro.layout.layout import DataLayout
from repro.transforms.fusion import can_fuse, fuse_nests, fusion_dependence_ok
from repro.transforms.grouppad import grouppad
from repro.transforms.intrapad import intra_pad
from repro.transforms.maxpad import l2maxpad
from repro.transforms.pad import multilvl_pad, pad
from repro.transforms.permute import memory_order

__all__ = ["optimize", "OptimizationReport"]

STRATEGIES = ("PAD", "L1", "L1&L2")


@dataclass
class OptimizationReport:
    """What the driver did and why."""

    strategy: str
    decisions: list[str] = field(default_factory=list)

    def log(self, message: str) -> None:
        """Append one decision line to the report."""
        self.decisions.append(message)

    def __str__(self) -> str:
        lines = [f"strategy: {self.strategy}"]
        lines.extend(f"  - {d}" for d in self.decisions)
        return "\n".join(lines)


def optimize(
    program: Program,
    hierarchy: HierarchyConfig,
    strategy: str = "L1",
    permute: bool = True,
    fuse: bool = True,
) -> tuple[Program, DataLayout, OptimizationReport]:
    """Apply the paper's optimization pipeline; returns the transformed
    program, its layout, and a decision report.

    ``strategy``: ``"PAD"`` = severe-conflict elimination only; ``"L1"`` =
    GROUPPAD targeting the first level; ``"L1&L2"`` = GROUPPAD followed by
    L2MAXPAD (requires a second level).
    """
    if strategy not in STRATEGIES:
        raise ReproError(
            f"unknown strategy {strategy!r}; choose from {STRATEGIES}"
        )
    if strategy == "L1&L2" and len(hierarchy) < 2:
        raise ReproError("strategy 'L1&L2' needs a hierarchy with an L2 cache")
    report = OptimizationReport(strategy=strategy)
    l1 = hierarchy.l1

    # 1. Intra-variable padding.
    before_shapes = {a.name: a.shape for a in program.arrays}
    program = intra_pad(program, l1.size, l1.line_size, hierarchy=hierarchy)
    for decl in program.arrays:
        if decl.shape != before_shapes[decl.name]:
            report.log(
                f"intra-pad {decl.name}: leading dim "
                f"{before_shapes[decl.name][0]} -> {decl.shape[0]}"
            )

    # 2. Loop permutation (memory order).
    if permute:
        nests = []
        for nest in program.nests:
            ordered = memory_order(program, nest, l1.line_size)
            if ordered.loop_vars != nest.loop_vars:
                report.log(
                    f"permute {nest.label}: {nest.loop_vars} -> {ordered.loop_vars}"
                )
            nests.append(ordered)
        program = program.with_nests(nests)

    def l1_grouppad(prog: Program) -> DataLayout:
        return grouppad(prog, DataLayout.sequential(prog), l1.size, l1.line_size)

    # GROUPPAD layout of the current ``program``, computed at most once.
    padded: DataLayout | None = None

    # 3. Profitable fusion of adjacent nests.
    if fuse:
        model = MissCostModel.from_hierarchy(hierarchy)
        i = 0
        while i + 1 < len(program.nests):
            a, b = program.nests[i], program.nests[i + 1]
            if not can_fuse(a, b):
                i += 1
                continue
            if not fusion_dependence_ok(program, a, b):
                report.log(
                    f"keep {a.label} | {b.label} separate: fusion would "
                    f"reverse a dependence"
                )
                i += 1
                continue
            candidate = fuse_nests(program, i, i + 1)
            if padded is None:
                padded = l1_grouppad(program)
            cand_layout = l1_grouppad(candidate)
            delta = fusion_delta(
                program, padded, [a, b],
                candidate, cand_layout, candidate.nests[i],
                l1.size, l1.line_size,
            )
            if fusion_profitable(delta, model):
                report.log(
                    f"fuse {a.label} + {b.label}: ΔL2refs={delta.l2_refs}, "
                    f"Δmem={delta.memory_refs} -> profitable"
                )
                program, padded = candidate, cand_layout
            else:
                report.log(
                    f"keep {a.label} | {b.label} separate: ΔL2refs="
                    f"{delta.l2_refs}, Δmem={delta.memory_refs} -> not profitable"
                )
                i += 1

    # 4. Inter-variable padding.
    if strategy == "PAD":
        layout = pad(program, DataLayout.sequential(program), l1.size, l1.line_size)
        report.log(f"PAD: pads={layout.pads}")
        if len(hierarchy) > 1:
            layout = multilvl_pad(program, layout, hierarchy)
            report.log(f"MULTILVLPAD: pads={layout.pads}")
    else:
        layout = padded if padded is not None else l1_grouppad(program)
        report.log(f"GROUPPAD(L1): pads={layout.pads}")
        if strategy == "L1&L2":
            layout = l2maxpad(program, layout, hierarchy)
            report.log(f"L2MAXPAD: pads={layout.pads}")

    return program, layout, report
