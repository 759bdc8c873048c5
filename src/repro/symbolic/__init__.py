"""The exactness proof behind the analytic predictor.

For affine loop nests in the *no-eviction* regime (every set of a level
receives at most as many distinct lines as it has ways), a level's miss
count is its distinct-line count, bit-for-bit what the LRU simulator
reports -- computable from the IR alone, without an address trace.
This package decides, per level, whether that proof holds
(:func:`classify_program` / :func:`classify_job`) and enumerates the
footprint it counts (:mod:`repro.symbolic.lines`).  The one analytic
estimator, :func:`repro.model.predict_program`, runs the proof first and
uses its counts at every exact level.

See ``docs/model.md`` ("When the estimate becomes exact") for the
exactness rules.  This package never imports :mod:`repro.model` at
import time: the dependency runs model -> symbolic.
"""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.symbolic.engine": (
        "LevelClassification", "classify_program", "classify_job",
    ),
    "repro.symbolic.lines": (
        "MAX_OFFSETS", "MAX_ROWS", "ref_distinct_offsets", "distinct_offsets",
        "distinct_lines", "max_set_occupancy",
    ),
})


def analyze_job(job):
    """Alias of :func:`repro.model.predict_job`.

    It exists only because the benchmark's traced ledger
    (``benchmarks/e2e/layers.py``) wraps this name; the benchmark
    refresh deletes it.
    """
    from repro.model import predict_job  # lazy: model imports this package

    return predict_job(job)
