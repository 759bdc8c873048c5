"""Objectives: what the autotuner minimizes.

The contract is deliberately small: an :class:`Objective` maps one
simulated :class:`~repro.cache.stats.SimulationResult` (plus the hierarchy
it ran on) to a single float, and **lower is better**.  Everything the
strategies and the tuner do -- comparisons, trajectories, gaps -- relies
only on that ordering, so any pure function of the miss statistics plugs
in.

The built-in, :func:`miss_cost_objective`, weights miss counts by the hierarchy's
per-level penalties (:class:`~repro.analysis.costmodel.MissCostModel`),
the same scaling the paper uses for fusion profitability (Section 4).

:func:`model_objective` is the *analytic* counterpart: it scores a
:class:`~repro.exec.jobs.SimJob` directly -- no trace, no simulation --
by running the closed-form predictor (:mod:`repro.model`) and applying a
base objective to the :class:`~repro.model.PredictedStats` mirror result.
It deliberately has a different call signature (job in, float out): a
predicted score is a *ranking* device, never a measurement, and the type
difference keeps the two from being mixed up in reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.analysis.costmodel import MissCostModel
from repro.cache.config import HierarchyConfig
from repro.cache.stats import SimulationResult

__all__ = [
    "Objective",
    "ModelObjective",
    "miss_cost_objective",
    "model_objective",
]


@dataclass(frozen=True)
class Objective:
    """A named, minimized figure of merit over simulation results."""

    name: str
    fn: Callable[[SimulationResult, HierarchyConfig], float] = field(
        compare=False, repr=False
    )

    def __call__(self, result: SimulationResult, hierarchy: HierarchyConfig) -> float:
        return float(self.fn(result, hierarchy))


def miss_cost_objective() -> Objective:
    """Penalty cycles of all misses, weighted per level (Section 4 scaling).

    L1 misses pay the next level's hit cost; references that miss every
    level pay the memory cost.  Hit costs are excluded -- every config of
    a pad/tile space issues the same references, so the hit term is a
    constant offset that only compresses relative gaps.
    """

    def fn(result: SimulationResult, hierarchy: HierarchyConfig) -> float:
        model = MissCostModel.from_hierarchy(hierarchy)
        l1_misses = result.levels[0].misses
        to_memory = result.memory_refs
        # Intermediate-level misses (3+ level hierarchies) pay their own
        # next-level costs on top of the L1/memory endpoints.
        extra = sum(
            lv.misses * hierarchy.miss_cycles(i)
            for i, lv in enumerate(result.levels[1:-1], start=1)
        )
        return model.weighted(l1_misses, to_memory) + extra

    return Objective(name="miss-cost", fn=fn)


@dataclass(frozen=True)
class ModelObjective:
    """An analytic (simulation-free) score over :class:`SimJob`\\ s.

    Wraps a base :class:`Objective` and feeds it the closed-form
    predictor's :class:`~repro.model.PredictedStats` mirror result
    instead of a simulation.  Used by
    :class:`~repro.search.strategies.PredictThenVerifyStrategy` to rank
    whole spaces and by :meth:`SweepExecutor.predict
    <repro.exec.executor.SweepExecutor.predict>` batch scoring.
    """

    name: str
    base: Objective

    def __call__(self, job) -> float:
        from repro.model import predict_job  # lazy: keeps import DAG acyclic

        return self.base(predict_job(job).result, job.hierarchy)


def model_objective(base: Objective | None = None) -> ModelObjective:
    """The closed-form predictor scoring jobs under ``base`` (default:
    the weighted miss cost, so predicted and simulated scores are in the
    same units and directly comparable)."""
    base = base if base is not None else miss_cost_objective()
    return ModelObjective(name=f"model[{base.name}]", base=base)

