"""Structured outcome of one autotuning run."""

from __future__ import annotations

from dataclasses import dataclass

from repro.search.space import Config

__all__ = ["SearchReport"]


@dataclass(frozen=True)
class SearchReport:
    """Everything one :meth:`~repro.search.tuner.Autotuner.search` did.

    ``trajectory`` is the best-so-far curve: one ``(evaluations, value)``
    point per strict improvement, x measured in *simulated* evaluations
    (in-memory memo replays are free and do not advance it).
    ``store_hits`` counts evaluations served by the executor's result
    store rather than fresh simulation -- across runs with
    ``REPRO_CACHE_DIR`` set, a repeated search is mostly store hits.
    """

    space: str
    strategy: str
    objective: str
    best_config: Config
    best_objective: float
    evaluations: int
    trajectory: tuple[tuple[int, float], ...]
    store_hits: int
    memo_hits: int
    sim_seconds: float
    wall_seconds: float
    stopped: str  # "completed" | "budget"
    baseline_config: Config | None = None
    baseline_objective: float | None = None

    @property
    def gap_pct(self) -> float | None:
        """How far the searched best moved past the baseline, in percent.

        Positive means search improved on the heuristic; 0.0 means the
        heuristic was already optimal within the space; None when no
        baseline was supplied.
        """
        if self.baseline_objective is None:
            return None
        if self.baseline_objective <= 0:
            return 0.0
        return (
            100.0
            * (self.baseline_objective - self.best_objective)
            / self.baseline_objective
        )
