"""repro.model -- the static, closed-form multi-level miss predictor.

Everything the simulator measures by replaying a trace, this subsystem
estimates in closed form from the program IR, the data layout, and the
hierarchy: spatial misses from strides, conflict misses from k-way
set-mapping overlap, capacity and cross-nest temporal reuse from
footprints.  Where the exactness proof of :mod:`repro.symbolic` holds
(the no-eviction regime), a level's count is the proven distinct-line
count, bit-for-bit the simulator's, and flagged ``exact``.  A prediction
costs microseconds to milliseconds where a simulation costs seconds,
which is what powers the two-tier predict-then-verify search
(:class:`repro.search.strategies.PredictThenVerifyStrategy`).

Entry points:

* :func:`predict_program` / :func:`predict_nest` -- analytic counterparts
  of ``simulate_program`` and of a single-nest ``SimJob``;
* :func:`predict_job` -- score a :class:`~repro.exec.jobs.SimJob` without
  running it (the executor's :meth:`~repro.exec.executor.SweepExecutor.predict`
  batch hook maps this over job lists);
* :class:`PredictedStats` -- the result type, mirroring
  :class:`~repro.cache.stats.SimulationResult` so predictions drop into
  existing reports, objectives, and cycle models, with a per-level
  ``exact`` flag;
* :func:`spearman` -- the rank-agreement metric ``ext_model`` and the
  property suite validate the predictor with.
"""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.model.predictor": (
        "LevelPrediction", "NestPrediction", "PredictedStats", "predict_nest",
        "predict_program", "predict_job",
    ),
    "repro.model.conflicts": (
        "ThrashCluster", "thrash_clusters", "thrashing_refs",
    ),
    "repro.model.validate": ("rankdata", "spearman", "mean_abs_rel_error"),
})
