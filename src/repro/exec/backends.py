"""Backend tiers of the execution substrate.

Every tier answers the same question -- "what are this job's per-level
miss counts?" -- at a different point on the cost/authority curve:

``symbolic``
    Closed-form counting from the IR (:mod:`repro.symbolic`).  Exact --
    bit-for-bit the simulator's counts -- on jobs classified into the
    no-eviction regime; the analytic estimate otherwise.  Microseconds,
    zero address traces.
``model``
    The analytic predictor (:mod:`repro.model`).  Always an estimate,
    built for ranking layouts.  Microseconds.
``sim``
    The vectorized streaming simulator -- the reproduction's reference
    measurement.  O(trace).
``oracle``
    Sequential one-access-at-a-time LRU replay
    (:func:`~repro.cache.assoc.replay_hierarchy`).
    Obviously correct, slowest; the ground truth the vectorized
    simulator is property-tested against.
``auto``
    Per-job selection: serve the symbolic tier where it is provably
    exact, fall back to ``sim`` everywhere else.

Tier results never alias in the :class:`~repro.exec.store.ResultStore`:
the backend that produced a result is part of its content key
(:func:`~repro.exec.hashing.job_key`), and only *authoritative* backends
(``sim``, ``oracle``, exact ``symbolic``) are stored at all.
"""

from __future__ import annotations

import os
import time

from repro.cache.assoc import replay_hierarchy
from repro.cache.stats import SimulationResult
from repro.errors import ReproError

__all__ = ["BACKENDS", "STORED_BACKENDS", "validate_backend", "run_oracle"]

#: Every selectable backend tier, cheapest-authoritative first.
BACKENDS = ("auto", "symbolic", "model", "sim", "oracle")

#: Backends whose results are memoized (under their own key component).
#: ``model`` is never stored -- an estimate must not shadow a
#: measurement; ``symbolic`` results are stored only when exact.
STORED_BACKENDS = ("symbolic", "sim", "oracle")


def validate_backend(name: str) -> str:
    """Check a backend name, returning it for chaining."""
    if name not in BACKENDS:
        raise ReproError(
            f"unknown backend {name!r}; expected one of {', '.join(BACKENDS)}"
        )
    return name


def run_oracle(job) -> SimulationResult:
    """Simulate one job on the sequential reference hierarchy.

    Streams the job's trace chunks through
    :func:`~repro.cache.assoc.replay_hierarchy` -- the executor's
    slowest, most trustworthy tier.
    """
    return replay_hierarchy(job.hierarchy, job.chunks())


def _timed_run_oracle(job) -> tuple[SimulationResult, float, int, int, None]:
    """Pool-able worker entry point for the oracle tier (mirrors
    :func:`repro.exec.executor._timed_run`; the sequential oracle does
    not produce timeline rows)."""
    start_ns = time.time_ns()
    t0 = time.perf_counter()
    result = run_oracle(job)
    return result, time.perf_counter() - t0, start_ns, os.getpid(), None
