"""Extension: the closed-form miss predictor vs. the trace simulator.

Two questions, two tables:

**Accuracy** -- over the same per-kernel pad spaces ``ext_search``
searches (the Table 1 kernels around Figure 9's MULTILVLPAD layouts),
how well does :mod:`repro.model` agree with the simulator?  The metric
that matters for search is *rank* agreement (Spearman correlation of the
miss-cost objective over a sampled sub-space); absolute miss-count error
per level is reported alongside.  Kernels whose spaces are plateaus --
most configs conflict-free, the simulator separating them only by
sub-0.1% boundary effects -- legitimately score low Spearman while the
predictor still lands within a fraction of a percent of the simulated
best; ``best gap %`` (simulated cost of the predictor's top pick vs. the
simulated best of the sample) is the column that catches that.

**Predict-then-verify** -- rerunning the ``ext_search`` gap table with
the two-tier :class:`~repro.search.PredictThenVerifyStrategy`: rank
``scale x budget`` configurations analytically (a 10--50x effective
budget expansion), then simulate only the ``top_k``.  Each row compares
against the pure-simulation search at the same simulation budget:
``sims`` (evaluations issued through the tuner), the sims ratio, and
whether the verified best matched or beat the pure search's.  The last
row is the first *joint* pad x tile search on the Figure 13 tiled
matrix multiply -- a product space far too large to simulate, which is
exactly the regime the predictor exists for.

The ``[model] smoke`` line at the end condenses the CI acceptance check:
on the smoke kernel, predict-then-verify must reach the pure search's
best-found cost with a fraction of its simulations, and the predictor's
ranking over that kernel's space must be strongly correlated with the
simulator's.

See also ``docs/model.md`` for what the predictor does and does not
model, and ``ext_search`` for the pure-simulation baseline methodology.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from repro.cache.config import HierarchyConfig, ultrasparc_i
from repro.exec.executor import SweepExecutor
from repro.experiments.ext_search import (
    DEFAULT_BUDGET,
    DEFAULT_PROGRAMS,
    QUICK_BUDGET,
    _pick_strategy,
    build_space,
)
from repro.experiments.fig13_tiling import tile_for_version
from repro.layout.layout import DataLayout
from repro.search.objective import Objective, miss_cost_objective, model_objective
from repro.search.space import SearchSpace, pad_tile_space
from repro.search.strategies import PredictThenVerifyStrategy
from repro.search.tuner import Autotuner
from repro.model.validate import mean_abs_rel_error, spearman
from repro.transforms.pad import multilvl_pad
from repro.util.tabulate import format_table

__all__ = [
    "run",
    "build_joint_space",
    "AccuracyRow",
    "VerifyRow",
    "ExtModelResult",
    "QUICK_PROGRAMS",
    "SMOKE_PROGRAM",
    "DEFAULT_SCALE",
    "DEFAULT_TOP_K",
]

# Quick mode trims to kernels with strong conflict structure (fast to
# simulate, informative to rank); the full run covers every ext_search
# kernel including the plateau-dominated ones.
QUICK_PROGRAMS = ["dot", "expl", "shal"]

# The CI smoke assertions key off this kernel's row: a 3-array
# finite-difference stencil whose pad space has real conflict structure
# (predictor Spearman ~0.9) and a coordinate-descent pure baseline.
SMOKE_PROGRAM = "expl"

DEFAULT_SCALE = 20  # analytic candidates per unit of simulation budget
DEFAULT_TOP_K = 3  # verified (simulated) candidates per search
ACCURACY_SAMPLE = 40  # configs simulated per kernel for the accuracy table


@dataclass(frozen=True)
class AccuracyRow:
    """Predictor-vs-simulator agreement over one kernel's sampled space."""

    program: str
    space_size: int
    sampled: int
    spearman: float
    l1_error: float  # mean |pred - sim| / sim over L1 misses
    mem_error: float  # same over memory references (last-level misses)
    best_gap_pct: float  # sim cost of predictor's top pick vs sampled sim best
    predict_seconds: float
    sim_seconds: float


@dataclass(frozen=True)
class VerifyRow:
    """Pure-simulation search vs. predict-then-verify on one space."""

    program: str
    space_size: int
    pure_strategy: str
    pure_sims: int
    pure_best: float
    ptv_sims: int
    ptv_scored: int
    ptv_best: float
    heuristic_objective: float

    @property
    def sims_ratio_pct(self) -> float:
        """Predict-then-verify simulations as a share of the pure search's."""
        return 100.0 * self.ptv_sims / self.pure_sims if self.pure_sims else 0.0

    @property
    def equal_quality(self) -> bool:
        """Did verification reach (or beat) the pure search's best cost?"""
        return self.ptv_best <= self.pure_best


@dataclass(frozen=True)
class ExtModelResult:
    """Both tables plus the condensed smoke line for CI."""

    hierarchy: HierarchyConfig
    objective: str
    accuracy: tuple[AccuracyRow, ...]
    verify: tuple[VerifyRow, ...]
    smoke_program: str

    def accuracy_row(self, program: str) -> AccuracyRow:
        for r in self.accuracy:
            if r.program == program:
                return r
        raise KeyError(f"no accuracy row for {program!r}")

    def verify_row(self, program: str) -> VerifyRow:
        for r in self.verify:
            if r.program == program:
                return r
        raise KeyError(f"no verify row for {program!r}")

    def smoke_line(self) -> str:
        """One greppable line condensing the CI acceptance check."""
        v = self.verify_row(self.smoke_program)
        a = self.accuracy_row(self.smoke_program)
        return (
            f"[model] smoke kernel={self.smoke_program} "
            f"ptv_sims={v.ptv_sims} pure_sims={v.pure_sims} "
            f"ratio={v.sims_ratio_pct:.0f}% "
            f"equal quality: {'yes' if v.equal_quality else 'no'} "
            f"spearman={a.spearman:.2f}"
        )

    def format(self) -> str:
        """Both tables plus the smoke line."""
        acc = format_table(
            ["program", "space", "sampled", "spearman", "L1 err %",
             "mem err %", "best gap %"],
            [
                [
                    r.program,
                    r.space_size,
                    r.sampled,
                    r.spearman,
                    100.0 * r.l1_error,
                    100.0 * r.mem_error,
                    r.best_gap_pct,
                ]
                for r in self.accuracy
            ],
            title=(
                "Model extension: closed-form predictor vs. simulator "
                f"({self.objective} objective)"
            ),
        )
        ver = format_table(
            ["program", "space", "pure strat", "pure sims", "pure best",
             "ptv scored", "ptv sims", "ptv best", "sims %", "equal"],
            [
                [
                    r.program,
                    r.space_size,
                    r.pure_strategy,
                    r.pure_sims,
                    r.pure_best,
                    r.ptv_scored,
                    r.ptv_sims,
                    r.ptv_best,
                    # vs. a 1-sim heuristic baseline the ratio is meaningless
                    r.sims_ratio_pct if r.pure_strategy != "heuristic" else "-",
                    "yes" if r.equal_quality else "no",
                ]
                for r in self.verify
            ],
            title=(
                "Predict-then-verify vs. pure simulated search "
                "(same simulation budget cap; scored = analytic candidates)"
            ),
        )
        return acc + "\n\n" + ver + "\n" + self.smoke_line()


def _sample_configs(space: SearchSpace, limit: int, rng: random.Random):
    """Up to ``limit`` configs: the whole space when it fits, else a
    seeded distinct sample (sorted, so runs are reproducible)."""
    if space.size <= limit:
        return list(space.configs())
    seen = set()
    attempts, cap = 0, 50 * limit
    while len(seen) < limit and attempts < cap:
        seen.add(space.random_config(rng))
        attempts += 1
    return sorted(seen)


def _accuracy_for(
    program: str,
    space: SearchSpace,
    executor: SweepExecutor,
    objective: Objective,
    sample: int,
    seed: int,
) -> AccuracyRow:
    """Simulate and predict one sampled sub-space; score the agreement."""
    rng = random.Random(seed)
    configs = _sample_configs(space, sample, rng)
    jobs = [space.job(c) for c in configs]
    t0 = time.perf_counter()
    predicted = executor.predict(jobs)
    predict_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    simulated = executor.run(jobs)
    sim_seconds = time.perf_counter() - t0
    pred_costs = [objective(p, space.job(c).hierarchy) for p, c in zip(predicted, configs)]
    sim_costs = [objective(s, space.job(c).hierarchy) for s, c in zip(simulated, configs)]
    best_pred_i = min(range(len(configs)), key=lambda i: (pred_costs[i], i))
    best_sim = min(sim_costs)
    best_gap = (
        100.0 * (sim_costs[best_pred_i] - best_sim) / best_sim if best_sim > 0 else 0.0
    )
    return AccuracyRow(
        program=program,
        space_size=space.size,
        sampled=len(configs),
        spearman=spearman(pred_costs, sim_costs),
        l1_error=mean_abs_rel_error(
            [p.levels[0].misses for p in predicted],
            [s.levels[0].misses for s in simulated],
        ),
        mem_error=mean_abs_rel_error(
            [p.memory_refs for p in predicted],
            [s.memory_refs for s in simulated],
        ),
        best_gap_pct=best_gap,
        predict_seconds=predict_seconds,
        sim_seconds=sim_seconds,
    )


def build_joint_space(
    n: int,
    hierarchy: HierarchyConfig | None = None,
    max_lines: int = 4,
):
    """(space, heuristic config) for the joint pad x tile matmul search.

    The heuristic baseline is the paper's pipeline: the L1
    self-interference-free tile (Figure 13's winning version), then
    MULTILVLPAD pads on the resulting tiled program.  Both are merged
    into the grid so the joint search starts from -- and can never lose
    to -- the tile-then-pad recipe.
    """
    from repro.kernels import matmul

    hierarchy = hierarchy or ultrasparc_i()
    shape = tile_for_version("L1", n, hierarchy)
    tiled = matmul.build_tiled(n, shape.width, shape.height)
    heuristic = multilvl_pad(tiled, DataLayout.sequential(tiled), hierarchy)
    padded = tuple(heuristic.order[1:])
    pads = {a: heuristic.pads[heuristic.index_of(a)] for a in padded}
    space = pad_tile_space(
        n, hierarchy,
        max_lines=max_lines,
        include_tile=(shape.width, shape.height),
        include_pads=pads,
        name=f"pad_tile[matmul-{n}]",
    )
    config = (shape.width, shape.height) + tuple(pads[a] for a in padded)
    return space, space.validate(config)


def run(
    quick: bool = False,
    programs: list[str] | None = None,
    hierarchy: HierarchyConfig | None = None,
    budget: int | None = None,
    seed: int = 0,
    scale: int = DEFAULT_SCALE,
    top_k: int = DEFAULT_TOP_K,
    matmul_n: int | None = None,
    workers: int | None = None,
    store=None,
    executor=None,
) -> ExtModelResult:
    """Measure predictor accuracy, then rerun the gap table two-tier.

    ``budget`` caps simulated evaluations per kernel exactly as in
    ``ext_search``; predict-then-verify ranks ``scale * budget``
    analytic candidates (clamped to the space) and simulates only
    ``top_k`` of them plus the heuristic baseline.
    """
    hierarchy = hierarchy or ultrasparc_i()
    programs = programs or (QUICK_PROGRAMS if quick else DEFAULT_PROGRAMS)
    if budget is None:
        budget = QUICK_BUDGET if quick else DEFAULT_BUDGET
    executor = executor or SweepExecutor(
        workers=workers if workers is not None else 1, store=store
    )
    objective = miss_cost_objective()
    tuner = Autotuner(executor=executor)
    max_scored = scale * budget
    sample = min(ACCURACY_SAMPLE, max(budget, 8))

    accuracy, verify = [], []
    for name in programs:
        _, space, heuristic_config = build_space(name, quick=quick, hierarchy=hierarchy)
        accuracy.append(
            _accuracy_for(name, space, executor, objective, sample, seed)
        )
        pure = tuner.search(
            space,
            strategy=_pick_strategy(space, budget),
            objective=objective,
            budget=budget,
            seed=seed,
            baseline=heuristic_config,
        )
        ptv = PredictThenVerifyStrategy(top_k=top_k, max_scored=max_scored)
        two_tier = tuner.search(
            space,
            strategy=ptv,
            objective=objective,
            budget=budget,
            seed=seed,
            baseline=heuristic_config,
        )
        verify.append(
            VerifyRow(
                program=name,
                space_size=space.size,
                pure_strategy=pure.strategy,
                pure_sims=pure.evaluations,
                pure_best=pure.best_objective,
                ptv_sims=two_tier.evaluations,
                ptv_scored=ptv.last_scored,
                ptv_best=two_tier.best_objective,
                heuristic_objective=two_tier.baseline_objective,
            )
        )

    # The joint pad x tile space: no pure-simulation counterpart is
    # tractable, so the comparison point is the tile-then-pad heuristic.
    n = matmul_n if matmul_n is not None else (96 if quick else 300)
    joint_space, joint_baseline = build_joint_space(n, hierarchy)
    ptv = PredictThenVerifyStrategy(top_k=top_k, max_scored=max_scored)
    joint = tuner.search(
        joint_space,
        strategy=ptv,
        objective=objective,
        budget=budget,
        seed=seed,
        baseline=joint_baseline,
    )
    verify.append(
        VerifyRow(
            program=f"matmul-{n} (joint)",
            space_size=joint_space.size,
            pure_strategy="heuristic",
            pure_sims=1,
            pure_best=joint.baseline_objective,
            ptv_sims=joint.evaluations,
            ptv_scored=ptv.last_scored,
            ptv_best=joint.best_objective,
            heuristic_objective=joint.baseline_objective,
        )
    )

    return ExtModelResult(
        hierarchy=hierarchy,
        objective=objective.name,
        accuracy=tuple(accuracy),
        verify=tuple(verify),
        smoke_program=SMOKE_PROGRAM if SMOKE_PROGRAM in programs else programs[0],
    )
