"""Extension: heuristic padding vs. empirically searched-optimal padding.

The paper's central claim is that its *compile-time* heuristics land
close to the best achievable locality.  The figures only ever apply the
heuristics; this experiment measures the remaining gap.  For each Table 1
kernel on the Section 6.1 hierarchy:

* the **heuristic** point is MULTILVLPAD (Figure 9's "L1&L2 Opt"
  version), scored by the weighted miss-cost objective;
* the **searched** point is the best configuration an
  :class:`~repro.search.tuner.Autotuner` finds in the inter-variable pad
  space around the same base layout -- exhaustive when the space fits
  the budget, coordinate descent (seeded with the heuristic pads)
  otherwise.

Because the heuristic pads are merged into the search grid and seed the
search, the searched objective can never be *worse*; the interesting
number is the relative gap.  A small gap on the resonant kernels is the
reproduction's first genuinely new result: empirical evidence, not just
simulation of the recipe, that the cheap heuristics are near-optimal.

Candidate batches run through the shared sweep executor, so ``--workers``
parallelizes each search round and ``REPRO_CACHE_DIR`` lets repeated runs
replay mostly from the result store.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.config import HierarchyConfig, ultrasparc_i
from repro.experiments.fig9_pad import INTRA_PAD_FIRST, QUICK_SIZES
from repro.kernels.registry import get_kernel
from repro.layout.layout import DataLayout
from repro.search.objective import miss_cost_objective
from repro.search.report import SearchReport
from repro.search.space import SearchSpace, pad_space
from repro.search.tuner import Autotuner
from repro.transforms.intrapad import intra_pad
from repro.transforms.pad import multilvl_pad
from repro.util.tabulate import format_table

__all__ = [
    "run",
    "build_space",
    "ExtSearchResult",
    "KernelSearchRow",
    "DEFAULT_PROGRAMS",
    "DEFAULT_BUDGET",
    "QUICK_BUDGET",
]

# The Table 1 scientific kernels (faithful models); IRR's irregular
# gathers are padding-insensitive by construction, so it is left out.
DEFAULT_PROGRAMS = ["adi32", "dot", "erle64", "expl", "jacobi", "linpackd", "shal"]

DEFAULT_BUDGET = 64  # simulated evaluations per kernel
QUICK_BUDGET = 24


@dataclass(frozen=True)
class KernelSearchRow:
    """One kernel's heuristic-vs-searched comparison."""

    program: str
    dimensions: int
    space_size: int
    report: SearchReport  # baseline = the heuristic's pads


@dataclass(frozen=True)
class ExtSearchResult:
    """All kernels' search outcomes plus aggregate evaluation statistics."""

    hierarchy: HierarchyConfig
    objective: str
    rows: tuple[KernelSearchRow, ...]

    @property
    def total_evaluations(self) -> int:
        return sum(r.report.evaluations for r in self.rows)

    @property
    def total_store_hits(self) -> int:
        return sum(r.report.store_hits for r in self.rows)

    @property
    def store_hit_rate(self) -> float:
        total = self.total_evaluations
        return self.total_store_hits / total if total else 0.0

    def format(self) -> str:
        """The heuristic-vs-searched table plus the aggregate stats line."""
        table = format_table(
            ["program", "dims", "space", "strategy", "evals",
             "heuristic", "searched", "gap %"],
            [
                [
                    r.program,
                    r.dimensions,
                    r.space_size,
                    r.report.strategy,
                    r.report.evaluations,
                    r.report.baseline_objective,
                    r.report.best_objective,
                    r.report.gap_pct,
                ]
                for r in self.rows
            ],
            title=(
                "Search extension: MULTILVLPAD vs. empirically best pads "
                f"({self.objective} objective, lower is better)"
            ),
        )
        stats = (
            f"[search] evaluations: {self.total_evaluations}, "
            f"store hits: {self.total_store_hits} "
            f"({100.0 * self.store_hit_rate:.0f}%)"
        )
        return table + "\n" + stats


def build_space(
    name: str,
    quick: bool = False,
    hierarchy: HierarchyConfig | None = None,
    max_lines: int = 8,
):
    """(kernel, space, heuristic config) for one program's pad search.

    The space is built around the sequential base layout (after the
    Section 6.1 intra-padding for ADI32/ERLE64); the MULTILVLPAD pads are
    merged into the grid so the heuristic is an exact point of the space.
    """
    hierarchy = hierarchy or ultrasparc_i()
    kernel = get_kernel(name)
    n = QUICK_SIZES.get(name) if quick else None
    program = kernel.program(n)
    if name in INTRA_PAD_FIRST:
        program = intra_pad(
            program, hierarchy.l1.size, hierarchy.l1.line_size, hierarchy=hierarchy
        )
    base = DataLayout.sequential(program)
    heuristic = multilvl_pad(program, base, hierarchy)
    searched = base.order[1:]
    heuristic_config = tuple(
        heuristic.pads[heuristic.index_of(a)] for a in searched
    )
    space = pad_space(
        program, base, hierarchy,
        kernel=kernel,
        max_lines=max_lines,
        include=dict(zip(searched, heuristic_config)),
        name=f"pad[{name}]",
    )
    return kernel, space, heuristic_config


def _pick_strategy(space: SearchSpace, budget: int | None) -> str:
    if budget is None or space.size <= budget:
        return "exhaustive"
    return "coordinate"


def run(
    quick: bool = False,
    programs: list[str] | None = None,
    hierarchy: HierarchyConfig | None = None,
    budget: int | None = None,
    seed: int = 0,
    max_lines: int = 8,
    workers: int | None = None,
    store=None,
    executor=None,
) -> ExtSearchResult:
    """Search each kernel's pad space; compare against MULTILVLPAD.

    ``budget`` caps simulated evaluations *per kernel* (defaults to
    :data:`DEFAULT_BUDGET`, :data:`QUICK_BUDGET` under ``quick``).  A
    space within the budget is searched exhaustively, a larger one by
    coordinate descent.
    """
    hierarchy = hierarchy or ultrasparc_i()
    programs = programs or DEFAULT_PROGRAMS
    if budget is None:
        budget = QUICK_BUDGET if quick else DEFAULT_BUDGET
    objective = miss_cost_objective()
    tuner = Autotuner(executor=executor, workers=workers, store=store)
    rows = []
    for name in programs:
        _, space, heuristic_config = build_space(
            name, quick=quick, hierarchy=hierarchy, max_lines=max_lines
        )
        report = tuner.search(
            space,
            strategy=_pick_strategy(space, budget),
            objective=objective,
            budget=budget,
            seed=seed,
            baseline=heuristic_config,
        )
        rows.append(
            KernelSearchRow(
                program=name,
                dimensions=len(space.dimensions),
                space_size=space.size,
                report=report,
            )
        )
    return ExtSearchResult(
        hierarchy=hierarchy, objective=objective.name, rows=tuple(rows)
    )
