"""repro -- reproduction of Rivera & Tseng, *Locality Optimizations for
Multi-Level Caches* (SC '99).

The package implements, from scratch, every system the paper relies on:

* :mod:`repro.cache` -- a trace-driven multi-level cache simulator
  (vectorized direct-mapped + set-associative LRU);
* :mod:`repro.ir` -- a mini-Fortran loop-nest IR with affine subscripts;
* :mod:`repro.trace` -- lowering IR programs to address traces;
* :mod:`repro.layout` -- base addresses, pads, conflict detection and the
  paper's cache-layout diagrams;
* :mod:`repro.analysis` -- reuse classification, group-reuse arcs, fusion
  accounting, analytic miss models;
* :mod:`repro.transforms` -- PAD / MULTILVLPAD / GROUPPAD / MAXPAD /
  L2MAXPAD padding, loop permutation, fusion, and tiling with
  self-interference-free tile-size selection;
* :mod:`repro.kernels` -- the Table 1 programs as IR + runnable NumPy code;
* :mod:`repro.search` -- empirical autotuning over pad and tile x pad
  spaces, stress-testing the heuristics against searched-optimal
  configurations;
* :mod:`repro.model` -- a static, closed-form multi-level miss predictor
  (no trace, no simulation) powering the two-tier predict-then-verify
  search strategy, exact (bit-for-bit vs. the simulator) at every level
  where it proves the no-eviction regime;
* :mod:`repro.obs` -- zero-dependency tracing (nested spans, Chrome
  trace-event export, per-level miss-rate counter tracks over reference
  windows, cross-process request trace trees, trace-vs-trace regression
  diffs) and a metrics registry with percentile summaries and Prometheus
  exposition, instrumented across the executor, simulators, search,
  model, and tuning service;
* :mod:`repro.fuzz` -- seeded random-program generation, a differential
  predictor-vs-simulator-vs-oracle harness, divergence shrinking, and a
  distilled regression corpus;
* :mod:`repro.symbolic` -- the predictor's exactness proof: which
  levels are in the no-eviction regime, and their trace-free
  distinct-line counts;
* :mod:`repro.experiments` -- harnesses regenerating every figure.

Quickstart::

    from repro import ProgramBuilder, DataLayout, simulate_program, ultrasparc_i
    from repro.transforms import pad

    b = ProgramBuilder("example")
    n = 2048
    A, B = b.array("A", (n,)), b.array("B", (n,))
    (i,) = b.vars("i")
    b.nest([b.loop(i, 1, n)], [b.assign(B[i], reads=[A[i]], flops=1)])
    prog = b.build()

    hier = ultrasparc_i()
    original = DataLayout.sequential(prog)
    padded = pad(prog, original, hier.l1.size, hier.l1.line_size)
    for name, layout in [("orig", original), ("pad", padded)]:
        r = simulate_program(prog, layout, hier)
        print(name, r.summary())
"""

from repro.lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.cache": (
        "CacheConfig", "HierarchyConfig", "LevelStats", "SimulationResult",
        "ultrasparc_i", "alpha_21164",
    ),
    "repro.ir": (
        "AffineExpr", "ArrayDecl", "ArrayRef", "Loop", "LoopNest", "Statement",
        "Program", "ProgramBuilder", "var", "const",
    ),
    # layout & simulation
    "repro.layout": ("DataLayout", "CacheDiagram"),
    "repro.simulate": ("simulate_program",),
    "repro.driver": ("optimize", "OptimizationReport"),
    # parallel execution & memoization
    "repro.exec": ("SimJob", "SweepExecutor", "ResultStore", "BACKENDS"),
    # empirical autotuning
    "repro.search": (
        "SearchSpace", "pad_space", "assoc_pad_space", "pad_tile_space",
        "ExhaustiveSearch", "RandomSearch", "CoordinateDescent",
        "PredictThenVerifyStrategy", "Autotuner", "SearchReport",
        "model_objective",
    ),
    # differential fuzzing
    "repro.fuzz": (
        "FuzzConfig", "random_program", "fuzzed_workloads", "run_campaign",
        "shrink_program",
    ),
    # analytic miss prediction, and the exactness proof behind it
    "repro.model": (
        "PredictedStats", "predict_program", "predict_job", "spearman",
    ),
    "repro.symbolic": ("classify_job",),
    # tuning service
    "repro.service": (
        "ServiceConfig", "TuningClient", "TuningRequest", "TuningService",
    ),
    # observability
    "repro.obs": (
        "Tracer", "MetricsRegistry", "Timeline", "TraceDiff", "diff_traces",
        "format_prometheus", "get_tracer", "get_metrics",
        "set_timeline_window", "start_tracing", "stop_tracing",
    ),
    "repro.errors": (
        "ReproError", "ConfigError", "IRError", "LayoutError",
        "TransformError", "AnalysisError", "SimulationError",
    ),
})
__all__ = ["__version__", *__all__]
