"""Search strategies over a :class:`~repro.search.space.SearchSpace`.

A strategy is *policy only*: it proposes batches of configs and reads
back their objective values through an ``evaluate`` callback supplied by
the :class:`~repro.search.tuner.Autotuner`.  Simulation, memoization,
budget accounting, and best-so-far tracking all live in the tuner, so a
strategy is a small deterministic loop:

* it must propose only configs inside the space;
* it must be a pure function of (space, evaluate results, rng) -- a
  fixed seed reproduces the exact proposal sequence;
* it may be interrupted at any batch boundary by the tuner's budget
  (``evaluate`` raises, the tuner catches).

Batches matter: every list passed to one ``evaluate`` call becomes one
:class:`~repro.exec.executor.SweepExecutor` run, so proposals in a batch
simulate in parallel.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, Protocol, Sequence

from repro.errors import ReproError
from repro.search.space import Config, SearchSpace

__all__ = [
    "SearchStrategy",
    "ExhaustiveSearch",
    "CoordinateDescent",
    "PredictThenVerifyStrategy",
    "STRATEGIES",
    "get_strategy",
]

Evaluate = Callable[[Sequence[Config]], list[float]]


class SearchStrategy(Protocol):
    """The policy interface: propose configs, consume their objectives."""

    name: str

    def run(
        self,
        space: SearchSpace,
        evaluate: Evaluate,
        rng: random.Random,
        start: Config | None = None,
    ) -> None:
        """Drive the search until done (the tuner's budget may cut it short)."""
        ...  # pragma: no cover - protocol


def _batched(it: Iterable[Config], size: int) -> Iterable[list[Config]]:
    batch: list[Config] = []
    for item in it:
        batch.append(item)
        if len(batch) >= size:
            yield batch
            batch = []
    if batch:
        yield batch


class ExhaustiveSearch:
    """Visit every point of the space, in deterministic grid order.

    Only sensible for small spaces (the tuner's budget still applies);
    within a batch all points simulate in parallel.
    """

    name = "exhaustive"

    def __init__(self, batch_size: int = 32):
        if batch_size < 1:
            raise ReproError(f"batch_size must be >= 1, got {batch_size}")
        self.batch_size = batch_size

    def run(self, space, evaluate, rng, start=None) -> None:
        for batch in _batched(space.configs(), self.batch_size):
            evaluate(batch)


class CoordinateDescent:
    """Axis-by-axis descent from a start point (hill-climbing on a grid).

    Each round evaluates *every* choice along one dimension (one parallel
    batch) and moves to the best; a full pass over all dimensions without
    movement means convergence.  Ties break toward the smaller choice
    index, keeping the walk deterministic.
    """

    name = "coordinate"

    def __init__(self, max_passes: int = 8):
        if max_passes < 1:
            raise ReproError(f"max_passes must be >= 1, got {max_passes}")
        self.max_passes = max_passes

    def run(self, space, evaluate, rng, start=None) -> None:
        current = space.validate(start) if start is not None else next(space.configs())
        (current_value,) = evaluate([current])
        for _ in range(self.max_passes):
            moved = False
            for dim_index in range(len(space.dimensions)):
                axis = space.axis_configs(current, dim_index)
                values = evaluate(axis)
                best_i = min(range(len(axis)), key=lambda i: (values[i], i))
                if values[best_i] < current_value and axis[best_i] != current:
                    current, current_value = axis[best_i], values[best_i]
                    moved = True
            if not moved:
                return


class PredictThenVerifyStrategy:
    """Two-tier search: score analytically, simulate only the top-K.

    Tier one runs the closed-form predictor (:mod:`repro.model`) over the
    whole space -- or, above ``max_scored`` points, over a seeded random
    sample plus the start point -- which costs microseconds per config
    and **zero** simulation budget.  Tier two passes the ``top_k``
    best-predicted configs to ``evaluate``, i.e. through the tuner's
    exact :class:`~repro.exec.jobs.SimJob` path, so the verification
    simulations batch in parallel and land in the executor's result
    store like any other search's.

    The simulated best can only be as good as what tier one surfaces:
    the strategy is safe exactly when the predictor *ranks* well
    (``ext_model`` measures Spearman agreement per space; see
    ``docs/model.md`` for when that holds).  Seeding the tuner with a
    heuristic baseline keeps the usual never-worse-than-baseline
    guarantee regardless.

    ``last_scored`` records how many configs tier one scored on the most
    recent run -- the ``ext_model`` experiment reports it next to the
    simulation count to show the 10-50x effective-budget expansion.
    """

    name = "predict"

    def __init__(
        self,
        top_k: int = 8,
        max_scored: int = 2048,
        objective: "ModelObjective | None" = None,
    ):
        if top_k < 1:
            raise ReproError(f"top_k must be >= 1, got {top_k}")
        if max_scored < 1:
            raise ReproError(f"max_scored must be >= 1, got {max_scored}")
        self.top_k = top_k
        self.max_scored = max_scored
        self.objective = objective
        self.last_scored = 0

    def _candidates(self, space, rng, start) -> list[Config]:
        if space.size <= self.max_scored:
            return list(space.configs())
        seen: set[Config] = set()
        if start is not None:
            seen.add(space.validate(start))
        attempts, limit = 0, 50 * self.max_scored
        while len(seen) < self.max_scored and attempts < limit:
            seen.add(space.random_config(rng))
            attempts += 1
        return sorted(seen)

    def run(self, space, evaluate, rng, start=None) -> None:
        from repro.obs.tracer import get_tracer
        from repro.search.objective import model_objective

        tracer = get_tracer()
        scorer = self.objective if self.objective is not None else model_objective()
        with tracer.span("ptv.predict", cat="search", space=space.name) as predict:
            candidates = self._candidates(space, rng, start)
            self.last_scored = len(candidates)
            # Ties break toward the lexicographically smallest config, so the
            # verified set is a pure function of (space, seed).
            scored = sorted((scorer(space.job(c)), c) for c in candidates)
            if tracer.enabled:
                predict.set(scored=len(candidates))
        top = [c for _, c in scored[: self.top_k]]
        if start is not None and start not in top:
            top.append(start)  # usually memoized already; never a new sim
        with tracer.span("ptv.verify", cat="search",
                         space=space.name, top_k=len(top)):
            evaluate(top)


STRATEGIES: dict[str, Callable[[], SearchStrategy]] = {
    "exhaustive": ExhaustiveSearch,
    "coordinate": CoordinateDescent,
    "predict": PredictThenVerifyStrategy,
}


def get_strategy(spec: "str | SearchStrategy") -> SearchStrategy:
    """A strategy instance from a name (or pass an instance through)."""
    if isinstance(spec, str):
        try:
            return STRATEGIES[spec]()
        except KeyError:
            raise ReproError(
                f"unknown strategy {spec!r}; choose from {sorted(STRATEGIES)}"
            ) from None
    if hasattr(spec, "run") and hasattr(spec, "name"):
        return spec
    raise ReproError(f"not a search strategy: {spec!r}")
