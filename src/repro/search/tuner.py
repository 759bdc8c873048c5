"""The autotuner: strategies x spaces x objectives, through the executor.

:class:`Autotuner` owns everything a strategy should not have to think
about:

* **batch evaluation** -- each proposed batch becomes one
  :class:`~repro.exec.executor.SweepExecutor` run, so candidates simulate
  in parallel and are memoized in the executor's result store (searches
  re-run with ``REPRO_CACHE_DIR`` set replay mostly from disk);
* **in-run memoization** -- a config evaluated twice (coordinate descent
  re-crossing an axis, a baseline re-proposed) is answered from memory
  without touching the executor;
* **budget control** -- ``budget`` caps *simulated* evaluations; the
  strategy is interrupted at the first batch that would exceed it;
* **best/trajectory tracking** -- strict improvements are recorded as the
  objective trajectory, independent of strategy internals.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.errors import ReproError
from repro.exec.executor import SweepExecutor
from repro.exec.store import ResultStore
from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer
from repro.search.objective import Objective, miss_cost_objective
from repro.search.report import SearchReport
from repro.search.space import Config, SearchSpace
from repro.search.strategies import SearchStrategy, get_strategy

__all__ = ["Autotuner"]


class _BudgetExhausted(Exception):
    """Internal: unwinds the strategy when the evaluation budget is spent."""


class Autotuner:
    """Search configuration spaces for empirically best layouts.

    Pass an ``executor`` to share one (and its result store) across many
    searches -- the ``ext_search`` experiment does exactly that -- or let
    the tuner build a private serial one.  One executor serves *every*
    round of a search, so its persistent worker pool spins up once per
    search (or once per experiment, when shared), not once per round;
    ``tuner.executor.close()`` releases a tuner-built pool.
    """

    def __init__(
        self,
        executor: SweepExecutor | None = None,
        workers: int | None = None,
        store: ResultStore | None = None,
    ):
        self.executor = executor or SweepExecutor(
            workers=workers if workers is not None else 1, store=store
        )

    def search(
        self,
        space: SearchSpace,
        strategy: str | SearchStrategy = "coordinate",
        objective: Objective | None = None,
        budget: int | None = None,
        seed: int = 0,
        baseline: Sequence[int] | None = None,
    ) -> SearchReport:
        """Run one search; returns the structured :class:`SearchReport`.

        ``baseline`` (e.g. a heuristic layout's config) is evaluated
        first and seeds the strategy's start point, so the reported best
        can never be worse than it.  ``budget`` caps simulated
        evaluations -- the baseline counts against it.
        """
        if budget is not None and budget < 1:
            raise ReproError(f"budget must be >= 1, got {budget}")
        objective = objective if objective is not None else miss_cost_objective()
        strat = get_strategy(strategy)
        rng = random.Random(seed)
        tracer = get_tracer()
        metrics = get_metrics()

        memo: dict[Config, float] = {}
        trajectory: list[tuple[int, float]] = []
        state = {
            "evals": 0, "memo_hits": 0, "store_hits": 0,
            "sim_seconds": 0.0, "wall_seconds": 0.0,
            "best": None, "best_config": None,
        }

        def record(config: Config, value: float,
                   span_id: int | None = None) -> None:
            if state["best"] is None or value < state["best"]:
                state["best"] = value
                state["best_config"] = config
                trajectory.append((state["evals"], value))
                # Objective improvements as instant events: the search
                # trajectory falls straight out of any recorded trace.
                # ``exec_span`` links the event to the ``exec.job`` span
                # that simulated this config, so a recommendation's trace
                # walks back to its evidence.
                if tracer.enabled:
                    extra = {"exec_span": span_id} if span_id is not None else {}
                    tracer.event("search.best", cat="search",
                                 value=value, evals=state["evals"], **extra)

        def evaluate(configs: Sequence[Config]) -> list[float]:
            cfgs = [space.validate(c) for c in configs]
            fresh: list[Config] = []
            seen_in_batch: set[Config] = set()
            for c in cfgs:
                if c in memo:
                    state["memo_hits"] += 1
                elif c in seen_in_batch:
                    state["memo_hits"] += 1
                else:
                    fresh.append(c)
                    seen_in_batch.add(c)
            metrics.counter("search.memo_hits").inc(len(cfgs) - len(fresh))
            truncated = False
            if budget is not None:
                remaining = budget - state["evals"]
                if remaining <= 0 and fresh:
                    raise _BudgetExhausted
                if len(fresh) > remaining:
                    fresh = fresh[:remaining]
                    truncated = True
            if fresh:
                with tracer.span("search.round", cat="search",
                                 proposed=len(cfgs), fresh=len(fresh)):
                    jobs = [space.job(c) for c in fresh]
                    results = self.executor.run(jobs)
                stats = self.executor.stats
                state["store_hits"] += stats.cache_hits
                state["sim_seconds"] += stats.sim_seconds
                state["wall_seconds"] += stats.wall_seconds
                metrics.counter("search.evals").inc(len(fresh))
                metrics.counter("search.store_hits").inc(stats.cache_hits)
                # records are index-sorted, one per job, so records[k]
                # is the provenance (incl. exec.job span id) of jobs[k].
                spans = [r.span_id for r in stats.records]
                for k, (c, job, result) in enumerate(zip(fresh, jobs, results)):
                    value = objective(result, job.hierarchy)
                    memo[c] = value
                    state["evals"] += 1
                    record(c, value, span_id=spans[k] if k < len(spans) else None)
            if truncated:
                raise _BudgetExhausted
            return [memo[c] for c in cfgs]

        stopped = "completed"
        start: Config | None = None
        with tracer.span(
            "search.run", cat="search",
            space=space.name, strategy=strat.name, objective=objective.name,
        ) as search_span:
            try:
                if baseline is not None:
                    start = space.validate(baseline)
                    evaluate([start])
                strat.run(space, evaluate, rng, start=start)
            except _BudgetExhausted:
                stopped = "budget"
            if tracer.enabled:
                search_span.set(evaluations=state["evals"], stopped=stopped,
                                best=state["best"])

        if state["best"] is None:
            raise ReproError(
                f"search over {space.name!r} evaluated nothing "
                f"(budget={budget}); raise the budget"
            )
        return SearchReport(
            space=space.name,
            strategy=strat.name,
            objective=objective.name,
            best_config=state["best_config"],
            best_objective=state["best"],
            evaluations=state["evals"],
            trajectory=tuple(trajectory),
            store_hits=state["store_hits"],
            memo_hits=state["memo_hits"],
            sim_seconds=state["sim_seconds"],
            wall_seconds=state["wall_seconds"],
            stopped=stopped,
            baseline_config=start,
            baseline_objective=memo.get(start) if start is not None else None,
        )
