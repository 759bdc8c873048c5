"""How the executor computes a job's per-level miss counts.

``sim``
    The vectorized streaming simulator -- the reproduction's reference
    measurement.  O(trace).
``oracle``
    Sequential one-access-at-a-time LRU replay
    (:func:`~repro.cache.assoc.replay_hierarchy`).
    Obviously correct, slowest; the ground truth the vectorized
    simulator is property-tested against.

The two backends never alias in the :class:`~repro.exec.store.ResultStore`:
the backend that produced a result is part of its content key
(:func:`~repro.exec.hashing.job_key`).  The analytic predictor
(:mod:`repro.model`), exact levels included, is an analysis, not a
backend.
"""

from __future__ import annotations

import os
import time

from repro.cache.assoc import replay_hierarchy
from repro.cache.stats import SimulationResult
from repro.errors import ReproError

__all__ = ["BACKENDS", "BACKEND_ALIASES", "validate_backend", "run_oracle"]

#: Every selectable backend, default first.
BACKENDS = ("sim", "oracle")

#: ``"auto"`` selects ``sim``.  No CLI offers it; it stays only because
#: the repository benchmark (``benchmarks/e2e``) passes ``backend="auto"``
#: to :class:`~repro.exec.executor.SweepExecutor`.
BACKEND_ALIASES = {"auto": "sim"}


def validate_backend(name: str) -> str:
    """Check a backend name, returning the backend it selects."""
    name = BACKEND_ALIASES.get(name, name)
    if name not in BACKENDS:
        raise ReproError(
            f"unknown backend {name!r}; expected one of {', '.join(BACKENDS)}"
        )
    return name


def run_oracle(job) -> SimulationResult:
    """Simulate one job on the sequential reference hierarchy.

    Streams the job's trace chunks through
    :func:`~repro.cache.assoc.replay_hierarchy` -- the executor's
    slowest, most trustworthy backend.
    """
    return replay_hierarchy(job.hierarchy, job.chunks())


def _timed_run_oracle(job) -> tuple[SimulationResult, float, int, int, None]:
    """Pool-able worker entry point for the oracle backend (mirrors
    :func:`repro.exec.executor._timed_run`; the sequential oracle does
    not produce timeline rows)."""
    start_ns = time.time_ns()
    t0 = time.perf_counter()
    result = run_oracle(job)
    return result, time.perf_counter() - t0, start_ns, os.getpid(), None
