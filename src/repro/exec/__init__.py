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

from repro.exec.backends import BACKENDS, run_oracle, validate_backend
from repro.exec.cost import estimate_job_refs, job_cost
from repro.exec.executor import (
    ExecStats,
    JobRecord,
    SweepExecutor,
    execute_one,
    get_default_store,
    run_jobs,
    set_default_store,
)
from repro.exec.hashing import SCHEMA_VERSION, job_key, program_fingerprint
from repro.exec.jobs import SimJob
from repro.exec.scheduler import WorkerPool
from repro.exec.shard import (
    ShardSpec,
    merge_stores,
    merge_traces,
    parse_shard,
    shard_jobs,
)
from repro.exec.store import ResultStore, open_default_store

__all__ = [
    "BACKENDS",
    "SCHEMA_VERSION",
    "ExecStats",
    "JobRecord",
    "ResultStore",
    "ShardSpec",
    "SimJob",
    "SweepExecutor",
    "WorkerPool",
    "estimate_job_refs",
    "execute_one",
    "get_default_store",
    "job_cost",
    "job_key",
    "merge_stores",
    "merge_traces",
    "open_default_store",
    "parse_shard",
    "program_fingerprint",
    "run_jobs",
    "run_oracle",
    "set_default_store",
    "shard_jobs",
    "validate_backend",
]
