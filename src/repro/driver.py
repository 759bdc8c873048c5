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
from repro.cache.stats import SimulationResult
from repro.errors import ReproError
from repro.ir.program import Program
from repro.layout.layout import DataLayout
from repro.transforms.fusion import can_fuse, fuse_nests, fusion_dependence_ok
from repro.transforms.grouppad import grouppad
from repro.transforms.intrapad import intra_pad
from repro.transforms.maxpad import l2maxpad
from repro.transforms.pad import multilvl_pad, pad
from repro.transforms.permute import memory_order

__all__ = [
    "optimize",
    "optimize_searched",
    "evaluate_strategies",
    "OptimizationReport",
    "StrategyOutcome",
]

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


def optimize_searched(
    program: Program,
    hierarchy: HierarchyConfig,
    strategy: str = "L1&L2",
    budget: int | None = 64,
    seed: int = 0,
    search_strategy: str = "coordinate",
    max_lines: int = 8,
    assoc_aware: bool = False,
    workers: int | None = None,
    store=None,
    executor=None,
):
    """The heuristic pipeline plus an empirical pad-search refinement.

    Runs :func:`optimize` as usual, then searches the inter-variable pad
    space around the heuristic layout with the :mod:`repro.search`
    autotuner, seeded *with* the heuristic pads -- so the returned layout
    is never worse (under the miss-cost objective) than what the paper's
    recipe produced, and the report records how much the search moved.

    With ``assoc_aware=True`` the search runs in
    :func:`~repro.search.space.assoc_pad_space`, whose coarse stride is
    the L1's k-way set-mapping period instead of the full cache size --
    use it when ``hierarchy`` has a set-associative L1 and you want the
    search to explore placements the direct-mapped model cannot
    distinguish (the ``ext_assoc`` experiment does this systematically).

    ``search_strategy`` accepts any :data:`~repro.search.STRATEGIES`
    name; ``"predict"`` selects the two-tier
    :class:`~repro.search.PredictThenVerifyStrategy`, which ranks the
    whole space with the closed-form predictor (:mod:`repro.model`) and
    spends the simulation budget only on the top-ranked candidates.

    Returns ``(program, layout, report, search_report)``.
    """
    from repro.search import Autotuner, assoc_pad_space, pad_space

    program, layout, report = optimize(program, hierarchy, strategy=strategy)
    searched_arrays = layout.order[1:]
    heuristic_config = tuple(
        layout.pads[layout.index_of(a)] for a in searched_arrays
    )
    make_space = assoc_pad_space if assoc_aware else pad_space
    space = make_space(
        program, layout, hierarchy,
        max_lines=max_lines,
        include=dict(zip(searched_arrays, heuristic_config)),
        name=f"pad[{program.name}:{strategy}]",
    )
    tuner = Autotuner(executor=executor, workers=workers, store=store)
    search_report = tuner.search(
        space,
        strategy=search_strategy,
        budget=budget,
        seed=seed,
        baseline=heuristic_config,
    )
    best_layout = layout.with_pads(
        dict(zip(searched_arrays, search_report.best_config))
    )
    report.log(
        f"search({search_report.strategy}, budget={budget}): "
        f"objective {search_report.baseline_objective:.6g} -> "
        f"{search_report.best_objective:.6g} "
        f"(gap {search_report.gap_pct:+.2f}%) in "
        f"{search_report.evaluations} evaluations"
    )
    return program, best_layout, report, search_report


@dataclass(frozen=True)
class StrategyOutcome:
    """One strategy's optimized program, layout, decisions, and misses."""

    strategy: str
    program: Program
    layout: DataLayout
    report: OptimizationReport
    result: SimulationResult


def evaluate_strategies(
    program: Program,
    hierarchy: HierarchyConfig,
    strategies: tuple[str, ...] = STRATEGIES,
    workers: int | None = None,
    store=None,
    executor=None,
) -> dict[str, StrategyOutcome]:
    """Optimize under each strategy and simulate the outcomes in one sweep.

    The paper's headline comparison ("L1" vs "L1&L2" should land within a
    whisker of each other) as a single call: the optimization pipeline
    runs per strategy, then every resulting (program, layout) is simulated
    through a :class:`~repro.exec.executor.SweepExecutor` -- parallel
    across strategies and memoized like any other sweep.
    """
    from repro.exec.executor import SweepExecutor
    from repro.exec.jobs import SimJob

    optimized = {s: optimize(program, hierarchy, strategy=s) for s in strategies}
    jobs = [
        SimJob(program=p, layout=lay, hierarchy=hierarchy, tag=(s,))
        for s, (p, lay, _) in optimized.items()
    ]
    owns_executor = executor is None
    if executor is None:
        executor = SweepExecutor(workers=workers if workers is not None else 1,
                                 store=store)
    try:
        sims = executor.run(jobs)
    finally:
        if owns_executor:
            executor.close()
    return {
        s: StrategyOutcome(
            strategy=s, program=p, layout=lay, report=rep, result=sim
        )
        for (s, (p, lay, rep)), sim in zip(optimized.items(), sims)
    }
