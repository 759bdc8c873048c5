"""The persistent, cost-aware, work-stealing dispatch core.

Before this module the executor stood a fresh ``ProcessPoolExecutor`` up
inside every :meth:`~repro.exec.executor.SweepExecutor.run` call and
mapped jobs over it statically (``pool.map(chunksize=1)``).  Multi-round
drivers -- the autotuner calls ``run()`` every round -- paid the full
pool spin-up/teardown per round, re-pickled the shared program IR and
hierarchy once *per job*, and a long straggler dispatched late
serialized the sweep's tail while short jobs idled the pool.

Three mechanisms fix that, all behind :class:`WorkerPool` and
:func:`dispatch`:

* **persistence** -- the pool is created lazily on first use and reused
  across ``run()`` calls until :meth:`WorkerPool.close` (the executor
  exposes ``close()`` and works as a context manager; a dropped pool is
  also shut down by a ``weakref.finalize`` guard so tests and notebooks
  cannot leak worker processes);
* **shared-payload broadcast** -- each sweep groups jobs by their shared
  ``(program, hierarchy)`` objects and pickles that pair *once per
  group*; workers receive the pickled blob plus a slim per-job variant
  (layout, trace mode, chunk budget) and memoize the unpickled payload
  by digest, so the expensive IR graph traversal happens once per sweep
  on the parent and once per worker on the other side, not once per job;
* **cost-aware work stealing** -- jobs are submitted longest-first
  (:func:`repro.exec.cost.job_cost`) to a shared queue that idle workers
  pull from (``submit`` + ``as_completed``), so load balances itself
  dynamically; a completion that overtakes an earlier-submitted job
  still in flight is counted as a *steal* (evidence the queue, not a
  static partition, assigned the work).

Determinism is untouched: results are keyed back to their submission
index, so the caller reassembles them in job order no matter what order
workers finish in -- byte-identical to the serial path, which
``tests/exec`` and the hypothesis property suite pin.
"""

from __future__ import annotations

import hashlib
import pickle
import weakref
from collections import OrderedDict
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from repro.obs.metrics import MetricsRegistry, get_metrics, set_metrics

__all__ = ["WorkerPool", "DispatchResult", "dispatch_jobs", "pack_payloads"]

#: Exceptions that mean "the pool is unusable", not "the job failed" --
#: the caller falls back to in-process serial execution on any of these.
POOL_ERRORS = (
    OSError,
    ValueError,
    RuntimeError,
    ImportError,
    NotImplementedError,
    BrokenProcessPool,
    pickle.PicklingError,
)

# -- worker side -------------------------------------------------------------

#: Per-worker-process memo of unpickled shared payloads, keyed by digest.
#: Bounded FIFO: a worker that outlives many sweeps holds only the most
#: recent payloads.
_PAYLOAD_CACHE: "OrderedDict[str, tuple]" = OrderedDict()
_PAYLOAD_CACHE_MAX = 8


def _shared_payload(digest: str, blob: bytes) -> tuple:
    payload = _PAYLOAD_CACHE.get(digest)
    if payload is None:
        payload = pickle.loads(blob)
        _PAYLOAD_CACHE[digest] = payload
        while len(_PAYLOAD_CACHE) > _PAYLOAD_CACHE_MAX:
            _PAYLOAD_CACHE.popitem(last=False)
    return payload


def run_shared(digest: str, blob: bytes, variant: tuple, runner) -> tuple:
    """Worker entry point: rebuild one job from its shared payload + slim
    variant, then run it through ``runner``.

    Returns ``(runner's result, the job's metrics)``: the job records
    into a fresh :class:`~repro.obs.metrics.MetricsRegistry`, which
    :func:`dispatch_jobs` merges into the parent's.

    Must stay a module-level function so it pickles by reference.  The
    blob rides along with every submission (cheap: pickling ``bytes`` is
    a copy, not a graph traversal), but is unpickled at most once per
    worker per digest.
    """
    from repro.exec.jobs import SimJob  # lazy: avoid import cycle at fork

    program, hierarchy = _shared_payload(digest, blob)
    layout, kernel, timeline_window = variant
    job = SimJob(
        program=program,
        layout=layout,
        hierarchy=hierarchy,
        kernel=kernel,
        timeline_window=timeline_window,
    )
    metrics, previous = MetricsRegistry(), get_metrics()
    set_metrics(metrics)
    try:
        return runner(job), metrics
    finally:
        set_metrics(previous)


# -- parent side -------------------------------------------------------------


def pack_payloads(jobs) -> list[tuple[str, bytes, tuple]]:
    """One ``(digest, blob, variant)`` triple per job, payloads deduped.

    Jobs sharing ``(program, hierarchy)`` *objects* (the common sweep
    shape: one program, many layouts) share one pickled blob; distinct
    objects with identical content also collapse, because the digest is
    taken over the pickled bytes.
    """
    blob_of: dict[tuple[int, int], tuple[str, bytes]] = {}
    out = []
    for job in jobs:
        ident = (id(job.program), id(job.hierarchy))
        cached = blob_of.get(ident)
        if cached is None:
            blob = pickle.dumps(
                (job.program, job.hierarchy), protocol=pickle.HIGHEST_PROTOCOL
            )
            cached = (hashlib.sha256(blob).hexdigest(), blob)
            blob_of[ident] = cached
        digest, blob = cached
        variant = (job.layout, job.kernel, job.timeline_window)
        out.append((digest, blob, variant))
    return out


class WorkerPool:
    """A lazily-created, persistent process pool with an explicit lifecycle.

    ``ensure()`` creates the inner :class:`ProcessPoolExecutor` on first
    use and returns it on every later call; ``close()`` shuts it down.
    A broken pool (worker crash, unpicklable platform) is discarded so
    the next ``ensure()`` can try again -- or the caller can fall back
    to serial execution.  Dropping the last reference shuts the workers
    down via ``weakref.finalize``, so an unclosed pool cannot leak
    processes past garbage collection.
    """

    def __init__(self, max_workers: int):
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers
        self._pool: ProcessPoolExecutor | None = None
        self._finalizer = None
        self.spinups = 0

    def ensure(self) -> ProcessPoolExecutor:
        """The live inner pool, created on first use (may raise
        ``POOL_ERRORS`` members on platforms without process support)."""
        if self._pool is None:
            pool = ProcessPoolExecutor(max_workers=self.max_workers)
            self._pool = pool
            self.spinups += 1
            self._finalizer = weakref.finalize(
                self, _shutdown_quietly, pool
            )
        return self._pool

    def discard(self) -> None:
        """Drop a broken pool without waiting on its workers."""
        pool, self._pool = self._pool, None
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        if pool is not None:
            _shutdown_quietly(pool, wait_workers=False)

    def close(self) -> None:
        """Shut the workers down and forget the pool (idempotent)."""
        pool, self._pool = self._pool, None
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        if pool is not None:
            _shutdown_quietly(pool)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "live" if self._pool is not None else "cold"
        return f"WorkerPool(max_workers={self.max_workers}, {state}, spinups={self.spinups})"


def _shutdown_quietly(pool: ProcessPoolExecutor, wait_workers: bool = True) -> None:
    try:
        pool.shutdown(wait=wait_workers, cancel_futures=True)
    except Exception:  # pragma: no cover - interpreter-teardown races
        pass


@dataclass
class DispatchResult:
    """What one parallel dispatch round did.

    ``outs`` maps submission rank -> runner return value for every job
    that completed in the pool (its worker-side metrics are already
    merged into the parent's registry); ranks absent from ``outs`` must
    be run serially by the caller (pool failure mid-flight).  ``steals``
    counts completions that overtook an earlier-submitted job still in
    flight; ``depth_samples`` holds the queue depth observed at each
    completion.
    """

    outs: dict[int, tuple]
    steals: int
    depth_samples: list[int]
    failed: bool  # pool became unusable; caller finishes serially


def dispatch_jobs(pool: WorkerPool, entries, runner) -> DispatchResult:
    """Submit ``entries`` (already cost-ordered) and drain completions.

    ``entries`` is the ``pack_payloads`` output, one triple per job in
    submission order.  Returns partial results instead of raising when
    the pool breaks: the caller retains determinism by re-running the
    missing ranks in-process.
    """
    outs: dict[int, tuple] = {}
    steals = 0
    depth_samples: list[int] = []
    try:
        inner = pool.ensure()
        future_rank = {}
        for rank, (digest, blob, variant) in enumerate(entries):
            future_rank[inner.submit(run_shared, digest, blob, variant, runner)] = rank
    except POOL_ERRORS:
        pool.discard()
        return DispatchResult(outs, 0, depth_samples, failed=True)

    pending = set(future_rank)
    failed = False
    while pending:
        try:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
        except POOL_ERRORS:
            failed = True
            break
        for future in done:
            rank = future_rank[future]
            try:
                outs[rank], metrics = future.result()
            except POOL_ERRORS:
                failed = True
                continue
            except BaseException:
                # A deterministic job error (SimulationError, ...): not a
                # pool problem -- cancel the rest and let it propagate,
                # exactly as the serial path would raise it.
                for f in pending:
                    f.cancel()
                raise
            get_metrics().merge(metrics)
            if any(future_rank[f] < rank for f in pending):
                steals += 1
            depth_samples.append(len(pending))
        if failed:
            break
    if failed:
        for future in pending:
            future.cancel()
        pool.discard()
    return DispatchResult(outs, steals, depth_samples, failed=failed)
