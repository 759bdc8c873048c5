"""The parallel sweep executor.

Every experiment in the reproduction is a list of *independent*
(program, layout, hierarchy) simulations; :class:`SweepExecutor` runs such
a list with

* **memoization** -- each job's content key is checked against a
  :class:`~repro.exec.store.ResultStore` before any work happens; the
  store's first miss loads its whole log once, so a warm sweep costs one
  file read, not one per job;
* **one way to compute** -- every job is simulated by the vectorized
  simulator (``backend="sim"``), or replayed on the sequential reference
  when asked (``"oracle"``; see :mod:`repro.exec.backends`); results are
  keyed with their backend name so the two never alias in the store;
* **parallelism** -- remaining jobs are ordered longest-first by a
  cost estimate from the IR (:func:`repro.exec.cost.job_cost`) and
  dispatched to a *persistent* worker pool
  (:mod:`repro.exec.scheduler`): the pool survives across ``run()``
  calls (close it with :meth:`close` or a ``with`` block), shared
  program/hierarchy state pickles once per sweep instead of once per
  job, and idle workers pull from the shared queue so stragglers never
  serialize the tail.  Results are reassembled in job order, so
  parallel execution stays byte-identical to the serial path;
* **sharding** -- ``shard="i/N"`` deterministically partitions any
  sweep by content key (:mod:`repro.exec.shard`): non-owned jobs are
  served from the store when present but never computed, so N shard
  runs over disjoint store directories can be fused with
  :func:`repro.exec.shard.merge_stores` into a store that replays
  byte-identically to the unsharded run;
* **graceful degradation** -- ``workers=1``, a single pending job, or any
  failure to stand a pool up (restricted environments, unpicklable
  platforms) falls back to in-process serial execution;
* **observability** -- per-job timing and hit/miss provenance are kept in
  :attr:`SweepExecutor.stats` and the cumulative :attr:`history`, mirrored
  into the :mod:`repro.obs` metrics registry (including ``exec.steals``
  and the pool queue-depth gauge), and (when a tracer is active) emitted
  as one span per sweep plus one span per executed job -- pool jobs
  carry their worker's pid and queue-wait time, so a Chrome trace shows
  per-worker lanes and scheduling gaps.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.cache.stats import SimulationResult
from repro.errors import ReproError
from repro.exec.backends import _timed_run_oracle, validate_backend
from repro.exec.jobs import SimJob
from repro.exec.store import ResultStore, open_default_store
from repro.obs.metrics import format_exec_line, get_metrics
from repro.obs.timeline import emit_counter_tracks, get_timeline_window
from repro.obs.tracer import get_tracer

if TYPE_CHECKING:  # pragma: no cover - typing only; imported where used
    from repro.exec.scheduler import WorkerPool
    from repro.exec.shard import ShardSpec

__all__ = [
    "JobRecord",
    "ExecStats",
    "SweepExecutor",
    "execute_one",
    "run_jobs",
    "get_default_store",
    "set_default_store",
]

_UNSET = object()

@dataclass(frozen=True)
class JobRecord:
    """Provenance of one executed job.

    ``span_id`` is the trace id of the ``exec.job`` span that computed
    this result (None when tracing is off or the job was store-served),
    so downstream layers -- the autotuner's ``search.best`` events, the
    tuning service's provenance -- can link back to the evidence.
    """

    index: int
    key: str
    seconds: float
    source: str  # "cache" | "serial" | "pool"
    tag: tuple = ()
    span_id: int | None = None


@dataclass
class ExecStats:
    """What one :meth:`SweepExecutor.run` call did, and how long it took."""

    workers: int = 1
    wall_seconds: float = 0.0
    records: list[JobRecord] = field(default_factory=list)
    skipped: int = 0  # non-owned jobs a sharded run declined to compute
    steals: int = 0  # out-of-order completions (dynamic load balancing)
    queue_depth_peak: int = 0

    @property
    def jobs(self) -> int:
        return len(self.records)

    @property
    def cache_hits(self) -> int:
        return sum(1 for r in self.records if r.source == "cache")

    @property
    def cache_misses(self) -> int:
        return self.jobs - self.cache_hits

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.jobs if self.jobs else 0.0

    @property
    def simulated_jobs(self) -> int:
        """Jobs that actually ran a simulator (serial or pool)."""
        return sum(1 for r in self.records if r.source in ("serial", "pool"))

    @property
    def sim_seconds(self) -> float:
        """Summed simulation time across jobs (exceeds wall time when
        jobs overlap in the pool)."""
        return sum(r.seconds for r in self.records if r.source != "cache")

    @classmethod
    def merged(cls, runs: "list[ExecStats]") -> "ExecStats":
        """Aggregate several runs' stats into one (batch evaluators, search).

        Wall time adds up (the runs happened sequentially); records
        concatenate, so every hit/miss/timing property keeps working.
        """
        out = cls(workers=max((r.workers for r in runs), default=1))
        for r in runs:
            out.wall_seconds += r.wall_seconds
            out.records.extend(r.records)
            out.skipped += r.skipped
            out.steals += r.steals
            out.queue_depth_peak = max(out.queue_depth_peak, r.queue_depth_peak)
        return out

    def format(self) -> str:
        """One observability line for CLI output.

        Delegates to :func:`repro.obs.metrics.format_exec_line`, the same
        renderer the CLI's metrics-driven line uses, so the two views
        cannot drift.
        """
        pooled = sum(1 for r in self.records if r.source == "pool")
        return format_exec_line(
            jobs=self.jobs,
            cache_hits=self.cache_hits,
            pooled=pooled,
            workers=self.workers,
            sim_seconds=self.sim_seconds,
            wall_seconds=self.wall_seconds,
        )


def _timed_run(job: SimJob) -> tuple[SimulationResult, float, int, int, list | None]:
    """Worker entry point: simulate one job, measuring its time.

    Returns ``(result, seconds, start_time_ns, pid, timeline_rows)`` --
    the wall-clock start and worker pid let the parent synthesize a
    trace span for work that ran in another process, and the timeline
    rows (None unless the job asked for windowed telemetry) are replayed
    by the parent as Perfetto counter tracks.  Must stay a module-level
    function so it pickles to worker processes.
    """
    start_ns = time.time_ns()
    t0 = time.perf_counter()
    result, rows = job.run_timed()
    return result, time.perf_counter() - t0, start_ns, os.getpid(), rows


class SweepExecutor:
    """Run independent simulation jobs, memoized and in parallel.

    Parameters
    ----------
    workers:
        Worker process count; ``None`` means ``os.cpu_count()``.  With one
        worker (or one pending job) everything runs in-process.
    store:
        A :class:`ResultStore` for memoization, or None to disable.
    backend:
        Default backend for :meth:`run` (see :mod:`repro.exec.backends`):
        ``"sim"`` (the default; ``"auto"`` is an alias) or ``"oracle"``.
    shard:
        ``"i/N"`` (or a :class:`~repro.exec.shard.ShardSpec`) restricts
        *computation* to the jobs this shard owns; non-owned jobs are
        served from the store when present, else their result slot is
        ``None``.  The default (None) computes everything.

    The executor owns a persistent :class:`~repro.exec.scheduler.WorkerPool`
    created on first parallel dispatch and reused across ``run()`` calls;
    release it with :meth:`close` or use the executor as a context
    manager.  An unclosed executor's workers are reclaimed on garbage
    collection, so short-lived executors stay safe -- but multi-round
    drivers should keep one executor alive to amortize pool spin-up.
    """

    def __init__(
        self,
        workers: int | None = None,
        store: ResultStore | None = None,
        backend: str = "sim",
        shard: "str | ShardSpec | None" = None,
    ):
        if workers is not None and workers < 1:
            raise ReproError(f"workers must be >= 1, got {workers}")
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        self.store = store
        self.backend = validate_backend(backend)
        if shard is not None:
            # Only a sharded sweep needs the partitioning (per executor).
            from repro.exec.shard import parse_shard

            shard = parse_shard(shard)
        self.shard = shard
        self.stats = ExecStats(workers=self.workers)
        self.history: list[ExecStats] = []
        self.predictions = 0
        self.predict_seconds = 0.0
        self._pool: WorkerPool | None = None

    # -- lifecycle ---------------------------------------------------------
    def pool(self) -> WorkerPool:
        """The executor's persistent worker pool (created lazily)."""
        if self._pool is None:
            from repro.exec.scheduler import WorkerPool

            self._pool = WorkerPool(self.workers)
        return self._pool

    def close(self) -> None:
        """Shut the persistent worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- internals ---------------------------------------------------------
    def _serve_stored(self, i, key, job, stats, results, tracer) -> bool:
        """Serve job ``i`` from the store under ``key``; False on a miss."""
        cached = self.store.get(key) if self.store is not None else None
        if cached is None:
            return False
        results[i] = cached
        stats.records.append(JobRecord(i, key, 0.0, "cache", job.tag))
        if tracer.enabled:
            tracer.event("exec.store_hit", cat="exec", key=key[:12], index=i)
        return True

    def _dispatch_pending(self, ordered, runner, tracer, stats):
        """Compute the unique pending jobs, pool-first.

        ``ordered`` is a list of ``(key, index, job)`` triples in
        first-seen order.  Returns ``{key: (out_tuple, source)}``.
        Longest-first submission plus a shared worker queue means short
        jobs backfill around stragglers; any pool failure finishes the
        missing jobs serially in-process, preserving determinism.
        """
        submit = ordered
        outs: dict[int, tuple] = {}
        pooled_ranks: set[int] = set()
        if self.workers > 1 and len(submit) > 1:
            # The pool and its cost ordering, imported once per parallel
            # sweep: a serial run never loads multiprocessing.
            from repro.exec.cost import job_cost
            from repro.exec.scheduler import dispatch_jobs, pack_payloads

            # Order only matters to the pool; serial results are keyed.
            submit = sorted(ordered, key=lambda e: job_cost(e[2]), reverse=True)
            disp = dispatch_jobs(
                self.pool(), pack_payloads([job for _, _, job in submit]), runner
            )
            outs = disp.outs
            pooled_ranks = set(outs)
            stats.steals += disp.steals
            if disp.depth_samples:
                stats.queue_depth_peak = max(
                    stats.queue_depth_peak, max(disp.depth_samples)
                )
                m = get_metrics()
                depth_hist = m.histogram("exec.queue_depth")
                for depth in disp.depth_samples:
                    depth_hist.observe(depth)
        for rank, (_, _, job) in enumerate(submit):
            if rank not in outs:
                outs[rank] = runner(job)
        return {
            key: (outs[rank], "pool" if rank in pooled_ranks else "serial")
            for rank, (key, _, _) in enumerate(submit)
        }

    # -- API ---------------------------------------------------------------
    def run(self, jobs, backend: str | None = None) -> list[SimulationResult]:
        """Execute all jobs; results come back in job order.

        ``backend`` overrides the executor's default backend for this
        call (see :mod:`repro.exec.backends`).  Parallel and serial
        simulation paths produce bit-identical results: the simulation is
        deterministic and every result is keyed back to its submission
        index, whatever order workers finish in.

        When a tracer is active the whole call is one ``exec.sweep`` span
        with an ``exec.job`` child per executed job (worker pid + queue
        wait attached, backend-tagged) and a store hit/miss event per
        memoized lookup; either way the run's totals land in the metrics
        registry.
        """
        jobs = list(jobs)
        chosen = validate_backend(backend if backend is not None else self.backend)
        runner = _timed_run_oracle if chosen == "oracle" else _timed_run
        tracer = get_tracer()
        t0 = time.perf_counter()
        stats = ExecStats(workers=self.workers)
        results: list[SimulationResult | None] = [None] * len(jobs)
        pending: list[tuple[int, str, SimJob]] = []
        fresh_results: list[SimulationResult] = []

        with tracer.span(
            "exec.sweep", cat="exec", jobs=len(jobs), workers=self.workers,
            backend=chosen, **({"shard": str(self.shard)} if self.shard else {}),
        ) as sweep:
            for i, job in enumerate(jobs):
                if not isinstance(job, SimJob):
                    raise ReproError(
                        f"SweepExecutor.run expects SimJobs, got {type(job)!r}"
                    )
                key = job.key(chosen)
                if self.shard is not None and not (
                    # Ownership is decided on the sim key; reuse it.
                    self.shard.owns_key(key) if chosen == "sim"
                    else self.shard.owns(job)
                ):
                    # Another shard computes it: serve it from the store
                    # or leave its slot None.
                    if not self._serve_stored(i, key, job, stats, results,
                                              tracer):
                        stats.skipped += 1
                    continue
                if self._serve_stored(i, key, job, stats, results, tracer):
                    continue
                if tracer.enabled and job.timeline_window is None:
                    # Traced runs also collect windowed per-level
                    # telemetry (pure observability: outside the
                    # content key, counts unchanged).
                    window = get_timeline_window()
                    if window:
                        job = replace(job, timeline_window=window)
                pending.append((i, key, job))
                if tracer.enabled and self.store is not None:
                    tracer.event("exec.store_miss", cat="exec",
                                 key=key[:12], index=i)

            if pending:
                # Duplicate keys inside one run simulate once; the extra
                # occurrences share the result like cache hits.
                unique: dict[str, tuple[int, SimJob]] = {}
                for i, key, job in pending:
                    unique.setdefault(key, (i, job))
                ordered = [(key, i, job) for key, (i, job) in unique.items()]
                dispatch_ns = time.time_ns()
                computed = self._dispatch_pending(ordered, runner, tracer, stats)
                job_spans: dict[str, int] = {}
                timeline_emits: list[tuple[tuple, list, int | None]] = []
                for i, key, job in pending:
                    (result, seconds, start_ns, worker_pid, rows), source = (
                        computed[key]
                    )
                    first = unique[key][0] == i
                    results[i] = result
                    if first:
                        fresh_results.append(result)
                        if self.store is not None:
                            self.store.put(key, result)
                        if tracer.enabled:
                            extra = (
                                {"tag": "/".join(map(str, job.tag))}
                                if job.tag else {}
                            )
                            job_spans[key] = tracer.add_span(
                                "exec.job",
                                start_ns=start_ns,
                                dur_ns=int(seconds * 1e9),
                                cat="exec",
                                tid=worker_pid if source == "pool" else None,
                                key=key[:12],
                                source=source,
                                index=i,
                                worker_pid=worker_pid,
                                refs=result.total_refs,
                                queue_wait_s=round(
                                    max(0.0, (start_ns - dispatch_ns) / 1e9), 6
                                ),
                                **extra,
                            )
                        if rows and tracer.enabled:
                            timeline_emits.append((
                                tuple(cfg.name for cfg in job.hierarchy),
                                rows,
                                worker_pid if source == "pool" else None,
                            ))
                    stats.records.append(
                        JobRecord(i, key, seconds if first else 0.0,
                                  source if first else "cache", job.tag,
                                  span_id=job_spans.get(key))
                    )
                # Counter tracks replay in start-time order so each
                # (pid, tid, track) lane is monotone in the export even
                # when pool completions arrived out of order.
                timeline_emits.sort(key=lambda e: e[1][0][2])
                for levels, rows, lane_tid in timeline_emits:
                    emit_counter_tracks(levels, rows, tracer=tracer,
                                        tid=lane_tid)

            stats.records.sort(key=lambda r: r.index)
            stats.wall_seconds = time.perf_counter() - t0
            if tracer.enabled:
                sweep.set(
                    store_hits=stats.cache_hits,
                    simulated=stats.simulated_jobs,
                    sim_seconds=round(stats.sim_seconds, 6),
                    steals=stats.steals,
                    queue_peak=stats.queue_depth_peak,
                    **({"skipped": stats.skipped} if stats.skipped else {}),
                )

        self._publish_metrics(stats, fresh_results)
        self.stats = stats
        self.history.append(stats)
        return results  # type: ignore[return-value]

    def _publish_metrics(
        self, stats: ExecStats, fresh_results: list[SimulationResult]
    ) -> None:
        """Mirror one run's totals into the process-wide metrics registry.

        ``exec.*`` counters carry exactly the numbers behind the ``[exec]``
        CLI line; ``sim.refs`` and the per-level ``cache.<level>.*``
        counters aggregate what the *fresh* simulations (including those
        run in pool workers) pushed through each cache level.
        """
        m = get_metrics()
        m.gauge("exec.workers").set(self.workers)
        m.counter("exec.jobs").inc(stats.jobs)
        m.counter("exec.store_hits").inc(stats.cache_hits)
        m.counter("exec.simulated").inc(stats.simulated_jobs)
        m.counter("exec.pool_jobs").inc(
            sum(1 for r in stats.records if r.source == "pool")
        )
        if stats.steals:
            m.counter("exec.steals").inc(stats.steals)
        if stats.skipped:
            m.counter("exec.shard_skipped").inc(stats.skipped)
        m.gauge("exec.queue_depth").set(stats.queue_depth_peak)
        m.counter("exec.sim_seconds").inc(stats.sim_seconds)
        m.counter("exec.wall_seconds").inc(stats.wall_seconds)
        if stats.simulated_jobs:
            job_hist = m.histogram("exec.job_seconds")
            for r in stats.records:
                if r.source in ("serial", "pool"):
                    job_hist.observe(r.seconds)
        for result in fresh_results:
            m.counter("sim.refs").inc(result.total_refs)
            for lv in result.levels:
                m.counter(f"cache.{lv.name}.accesses").inc(lv.accesses)
                m.counter(f"cache.{lv.name}.misses").inc(lv.misses)

    def predict(self, jobs) -> list[SimulationResult]:
        """Analytically score jobs without simulating (or caching) them.

        The batch-scoring counterpart of :meth:`run` for the closed-form
        predictor (:mod:`repro.model`): same job-list-in, result-list-out
        shape, but each entry is a :class:`~repro.cache.stats.SimulationResult`
        *mirror* derived from :func:`~repro.model.predict_job` -- an
        estimate for ranking, never a measurement.  Predictions are not
        written to the result store (they must never shadow real
        simulations under the same content key); :attr:`predictions` and
        :attr:`predict_seconds` accumulate across calls for reporting.
        """
        from repro.model import predict_job  # lazy: model imports analysis/layout

        jobs = list(jobs)
        t0 = time.perf_counter()
        out = []
        with get_tracer().span("exec.predict", cat="model", jobs=len(jobs)):
            for job in jobs:
                if not isinstance(job, SimJob):
                    raise ReproError(
                        f"SweepExecutor.predict expects SimJobs, got {type(job)!r}"
                    )
                out.append(predict_job(job).result)
        elapsed = time.perf_counter() - t0
        self.predictions += len(jobs)
        self.predict_seconds += elapsed
        m = get_metrics()
        m.counter("model.predictions").inc(len(jobs))
        m.counter("model.predict_seconds").inc(elapsed)
        return out

    def mark(self) -> int:
        """Checkpoint for :meth:`cumulative_stats` (current history length)."""
        return len(self.history)

    def cumulative_stats(self, since: int = 0) -> ExecStats:
        """Merged stats of every run since a :meth:`mark` checkpoint.

        Multi-round drivers (the autotuner, the experiments CLI) call
        :meth:`run` many times; this is the one-line summary across all
        of those rounds.
        """
        return ExecStats.merged(self.history[since:])


def run_jobs(
    jobs,
    workers: int | None = None,
    store: ResultStore | None = None,
    backend: str = "sim",
) -> tuple[list[SimulationResult], ExecStats]:
    """One-shot convenience wrapper around :class:`SweepExecutor`.

    The executor (and its worker pool) is closed before returning --
    use a long-lived :class:`SweepExecutor` to amortize pool spin-up
    across calls.
    """
    with SweepExecutor(workers=workers, store=store, backend=backend) as ex:
        results = ex.run(jobs)
        return results, ex.stats


# -- default store plumbing (library entry points) --------------------------
#
# simulate_program / simulate_kernel_layout memoize through
# a process-wide default store: off unless REPRO_CACHE_DIR is set or
# set_default_store() is called.  The experiments CLI manages its own store.

_default_store: ResultStore | None | object = _UNSET


def get_default_store() -> ResultStore | None:
    """The process-wide store used by the one-call simulation helpers."""
    global _default_store
    if _default_store is _UNSET:
        _default_store = open_default_store()
    return _default_store  # type: ignore[return-value]


def set_default_store(store: ResultStore | str | os.PathLike | None) -> None:
    """Install (or disable, with None) the process-wide default store."""
    global _default_store
    if store is None or isinstance(store, ResultStore):
        _default_store = store
    else:
        _default_store = ResultStore(store)


def execute_one(
    job: SimJob,
    store: ResultStore | None | object = _UNSET,
    backend: str = "sim",
) -> SimulationResult:
    """Run one job through the memoization layer (serial, in-process).

    Routes through the same key logic as :meth:`SweepExecutor.run`, so a
    one-off call sees exactly the store entries a sweep would.  ``store``
    defaults to the process-wide store; pass None to force a fresh
    computation.
    """
    if store is _UNSET:
        store = get_default_store()
    ex = SweepExecutor(workers=1, store=store, backend=backend)
    return ex.run([job])[0]
