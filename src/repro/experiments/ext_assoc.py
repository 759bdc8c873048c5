"""Extension: the paper's associativity claim, measured from both sides.

Section 1 claims that "simply treating k-way associative caches as
direct-mapped for locality optimizations achieves nearly all the
benefits of explicitly considering higher associativity."  The
experiment prints two tables.

The **claim table** checks the mechanism: it pads for the
*direct-mapped* model (PAD as usual) and evaluates the same layouts on
2-way and 4-way LRU hierarchies of identical capacity.  Padding chosen
for a direct-mapped cache should still remove most misses on the
associative caches, and the residual miss rate should already be close
to the 4-way floor.

The **headroom table** attacks the claim from the other side: for each
Table 1 kernel under 2-way and 4-way LRU hierarchies,

* the **heuristic** point is MULTILVLPAD computed against the paper's
  direct-mapped model (exactly what a compiler following the paper
  would emit), evaluated on the k-way hierarchy;
* the **searched** point is the best configuration an
  :class:`~repro.search.tuner.Autotuner` finds in
  :func:`~repro.search.space.pad_space` over the k-way hierarchy, whose
  coarse stride is then the k-way set-mapping period ``S1/k``, i.e. it
  holds placements a direct-mapped model cannot tell apart -- with the
  k-way hierarchy itself as the oracle.

The heuristic pads are merged into the grid and seed the search, so the
searched objective can never be worse; the per-kernel ``gap %`` column
is therefore a direct measurement of how much the paper's
treat-as-direct-mapped simplification leaves on the table.  Small gaps
confirm the claim with evidence the paper never produced.

The whole sweep is only affordable because the k-way simulator is
vectorized (:mod:`repro.cache.assoc_vec`); under the old sequential
replay each search round was ~100x slower than its direct-mapped twin.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.config import CacheConfig, HierarchyConfig, ultrasparc_i
from repro.exec.jobs import SimJob
from repro.experiments.common import run_sweep
from repro.experiments.ext_search import _pick_strategy
from repro.experiments.fig9_pad import INTRA_PAD_FIRST, QUICK_SIZES
from repro.kernels.registry import get_kernel
from repro.layout.layout import DataLayout
from repro.search.objective import miss_cost_objective
from repro.search.report import SearchReport
from repro.search.space import SearchSpace, pad_space
from repro.search.tuner import Autotuner
from repro.transforms.intrapad import intra_pad
from repro.transforms.pad import multilvl_pad, pad
from repro.util.tabulate import format_table

__all__ = [
    "run",
    "build_jobs",
    "measure_claim",
    "build_space",
    "assoc_hierarchy",
    "ClaimResult",
    "ExtAssocResult",
    "AssocSearchRow",
    "CLAIM_PROGRAMS",
    "DEFAULT_PROGRAMS",
    "DEFAULT_ASSOCS",
    "DEFAULT_BUDGET",
    "QUICK_BUDGET",
]

# The claim table's kernels.
CLAIM_PROGRAMS = ["dot", "expl", "jacobi", "su2cor"]

# Same kernel set as ext_search: the Table 1 scientific kernels whose
# miss rates are padding-sensitive.
DEFAULT_PROGRAMS = ["adi32", "dot", "erle64", "expl", "jacobi", "linpackd", "shal"]

DEFAULT_ASSOCS = (2, 4)

DEFAULT_BUDGET = 48  # simulated evaluations per (kernel, associativity)
QUICK_BUDGET = 16

#: How many multiples of the L1 set-mapping period (from 0) the k-way
#: pad grid crosses each array's reach with (see
#: :func:`~repro.search.space.pad_space`).
L2_MULTIPLES = 2


def assoc_hierarchy(associativity: int) -> HierarchyConfig:
    """The Section 6.1 hierarchy with k-way LRU at both levels."""
    base = ultrasparc_i()
    return HierarchyConfig(
        levels=tuple(
            CacheConfig(
                size=c.size, line_size=c.line_size,
                associativity=associativity, name=c.name,
                hit_cycles=c.hit_cycles,
            )
            for c in base
        ),
        memory_cycles=base.memory_cycles,
    )


@dataclass(frozen=True)
class ClaimResult:
    """L1 miss rates of each program per (layout version, associativity)."""

    # program -> {(version, assoc): l1_miss_rate}
    rates: dict[str, dict[tuple[str, int], float]]

    def format(self) -> str:
        """Render the claim table."""
        rows = [
            [prog] + [100 * r[(version, assoc)]
                      for version in ("orig", "padded") for assoc in (1, 2, 4)]
            for prog, r in self.rates.items()
        ]
        return format_table(
            ["program",
             "orig 1-way%", "orig 2-way%", "orig 4-way%",
             "PAD 1-way%", "PAD 2-way%", "PAD 4-way%"],
            rows,
            title=(
                "Associativity extension: L1 miss rates of direct-mapped-"
                "targeted PAD on k-way caches"
            ),
        )


def build_jobs(
    quick: bool = False,
    programs: list[str] | None = None,
) -> list[SimJob]:
    """The claim table's (program, version, associativity) cells, tagged
    accordingly: the jobs known up front, which ``--shard`` partitions
    (the search picks its jobs as it goes)."""
    dm = ultrasparc_i()
    jobs: list[SimJob] = []
    for name in programs or CLAIM_PROGRAMS:
        kernel = get_kernel(name)
        n = QUICK_SIZES.get(name) if quick else None
        program = kernel.program(n)
        seq = DataLayout.sequential(program)
        padded = pad(program, seq, dm.l1.size, dm.l1.line_size)
        for assoc in (1, 2, 4):
            hier = dm if assoc == 1 else assoc_hierarchy(assoc)
            for version, layout in [("orig", seq), ("padded", padded)]:
                jobs.append(
                    SimJob.for_kernel(
                        kernel, program, layout, hier,
                        tag=(name, version, assoc),
                    )
                )
    return jobs


def measure_claim(
    quick: bool = False,
    programs: list[str] | None = None,
    workers: int | None = None,
    store=None,
    executor=None,
) -> ClaimResult:
    """Measure direct-mapped-targeted PAD on 1/2/4-way hierarchies."""
    jobs = build_jobs(quick, programs)
    sims = run_sweep(jobs, executor=executor, workers=workers, store=store)
    rates: dict[str, dict[tuple[str, int], float]] = {}
    for job, result in zip(jobs, sims):
        name, version, assoc = job.tag
        rates.setdefault(name, {})[(version, assoc)] = result.miss_rate("L1")
    return ClaimResult(rates=rates)


@dataclass(frozen=True)
class AssocSearchRow:
    """One (kernel, associativity) heuristic-vs-searched comparison."""

    program: str
    associativity: int
    dimensions: int
    space_size: int
    report: SearchReport  # baseline = the direct-mapped heuristic's pads


@dataclass(frozen=True)
class ExtAssocResult:
    """The claim table plus every (kernel, associativity) search outcome."""

    claim: ClaimResult
    objective: str
    rows: tuple[AssocSearchRow, ...]

    @property
    def total_evaluations(self) -> int:
        return sum(r.report.evaluations for r in self.rows)

    @property
    def worst_gap_pct(self) -> float:
        """The largest modeling gap found -- the headline number."""
        return max((r.report.gap_pct for r in self.rows), default=0.0)

    def format(self) -> str:
        table = format_table(
            ["program", "assoc", "dims", "space", "strategy", "evals",
             "MULTILVLPAD", "searched", "gap %"],
            [
                [
                    r.program,
                    f"{r.associativity}-way",
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
                "Associativity-aware search: direct-mapped MULTILVLPAD vs. "
                f"k-way-aware pads ({self.objective} objective, lower is "
                "better; gap % = headroom the direct-mapped model leaves)"
            ),
        )
        summary = (
            f"[assoc] worst modeling gap: {self.worst_gap_pct:.1f}% "
            f"over {len(self.rows)} (kernel, assoc) cells, "
            f"{self.total_evaluations} evaluations"
        )
        return self.claim.format() + "\n\n" + table + "\n" + summary


def build_space(
    name: str,
    associativity: int,
    quick: bool = False,
) -> tuple[object, SearchSpace, tuple[int, ...]]:
    """(kernel, space, heuristic config) for one (kernel, k-way) search.

    The heuristic pads come from MULTILVLPAD run against the
    *direct-mapped* Section 6.1 hierarchy -- the paper's model -- and are
    merged into the k-way-aware grid so the heuristic is an exact point
    of the space the search starts from.
    """
    dm = ultrasparc_i()
    hierarchy = assoc_hierarchy(associativity)
    kernel = get_kernel(name)
    n = QUICK_SIZES.get(name) if quick else None
    program = kernel.program(n)
    if name in INTRA_PAD_FIRST:
        program = intra_pad(
            program, dm.l1.size, dm.l1.line_size, hierarchy=dm
        )
    base = DataLayout.sequential(program)
    heuristic = multilvl_pad(program, base, dm)
    searched = base.order[1:]
    heuristic_config = tuple(
        heuristic.pads[heuristic.index_of(a)] for a in searched
    )
    space = pad_space(
        program, base, hierarchy,
        kernel=kernel,
        l2_multiples=L2_MULTIPLES,
        include=dict(zip(searched, heuristic_config)),
        name=f"assoc_pad[{name},{associativity}w]",
    )
    return kernel, space, heuristic_config


def run(
    quick: bool = False,
    programs: list[str] | None = None,
    associativities: tuple[int, ...] = DEFAULT_ASSOCS,
    budget: int | None = None,
    seed: int = 0,
    workers: int | None = None,
    store=None,
    executor=None,
) -> ExtAssocResult:
    """Measure the claim table, then search each kernel's k-way-aware pad
    space under 2-/4-way L1s.

    ``programs`` picks the searched kernels; the claim table always
    covers :data:`CLAIM_PROGRAMS`.  ``budget`` caps simulated evaluations per (kernel, associativity)
    cell (defaults to :data:`DEFAULT_BUDGET`, :data:`QUICK_BUDGET` under
    ``quick``).
    """
    programs = programs or DEFAULT_PROGRAMS
    if budget is None:
        budget = QUICK_BUDGET if quick else DEFAULT_BUDGET
    objective = miss_cost_objective()
    claim = measure_claim(quick, workers=workers, store=store, executor=executor)
    tuner = Autotuner(executor=executor, workers=workers, store=store)
    rows = []
    for name in programs:
        for assoc in associativities:
            _, space, heuristic_config = build_space(name, assoc, quick=quick)
            report = tuner.search(
                space,
                strategy=_pick_strategy(space, budget),
                objective=objective,
                budget=budget,
                seed=seed,
                baseline=heuristic_config,
            )
            rows.append(
                AssocSearchRow(
                    program=name,
                    associativity=assoc,
                    dimensions=len(space.dimensions),
                    space_size=space.size,
                    report=report,
                )
            )
    return ExtAssocResult(claim=claim, objective=objective.name, rows=tuple(rows))
