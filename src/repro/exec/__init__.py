"""Parallel experiment execution with content-addressed memoization.

The subsystem's layers:

* :mod:`repro.exec.hashing` -- stable content hashing of simulation
  inputs (program IR, layout, hierarchy geometry, trace mode);
* :mod:`repro.exec.store` -- :class:`ResultStore`, an on-disk
  content-addressed cache of :class:`~repro.cache.stats.SimulationResult`:
  one append-only JSONL log behind an in-memory hot tier (the same
  :class:`~repro.exec.store.LogStore` the tuning service's response
  store is built on);
* :mod:`repro.exec.cost` -- trace-free per-job cost estimates (dynamic
  reference count, working-set lower bound) that order dispatch and
  size trace chunk budgets;
* :mod:`repro.exec.scheduler` -- the persistent worker pool
  (:class:`WorkerPool`), shared-payload broadcast, and cost-aware
  work-stealing dispatch the executor runs on;
* :mod:`repro.exec.executor` -- :class:`SweepExecutor`, fanning
  independent :class:`SimJob` simulations across the pool with
  deterministic ordering and graceful serial fallback;
* :mod:`repro.exec.backends` -- the two ways to compute a job: the
  vectorized simulator (``sim``, the default; ``auto`` is an alias) and
  the sequential reference (``oracle``), each keyed separately in the
  store;
* :mod:`repro.exec.shard` -- deterministic ``i/N`` sweep partitioning
  (:class:`ShardSpec`) plus :func:`merge_stores` / :func:`merge_traces`
  to fuse per-shard artifacts back into one.

Typical sweep::

    from repro.exec import ResultStore, SimJob, SweepExecutor

    jobs = [SimJob(program, layout, hierarchy) for layout in layouts]
    with SweepExecutor(workers=4, store=ResultStore("~/.cache/repro-sim")) as ex:
        results = ex.run(jobs)      # parallel; re-running is ~free
        print(ex.stats.format())    # hits/misses, per-job timing

See ``docs/parallel_execution.md`` for the design and the cache-key
contract.
"""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.exec.backends": ("BACKENDS", "run_oracle", "validate_backend"),
    "repro.exec.hashing": ("SCHEMA_VERSION", "job_key", "program_fingerprint"),
    "repro.exec.executor": (
        "ExecStats", "JobRecord", "SweepExecutor", "execute_one",
        "get_default_store", "run_jobs", "set_default_store",
    ),
    "repro.exec.store": ("ResultStore", "open_default_store"),
    "repro.exec.shard": (
        "ShardSpec", "merge_stores", "merge_traces", "parse_shard",
        "shard_jobs",
    ),
    "repro.exec.jobs": ("SimJob",),
    "repro.exec.scheduler": ("WorkerPool",),
    "repro.exec.cost": ("estimate_job_refs", "job_cost"),
})
