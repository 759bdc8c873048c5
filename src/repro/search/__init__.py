"""Empirical autotuning: search pad/tile/fusion spaces for best layouts.

The paper's claim is that cheap compile-time heuristics (PAD,
MULTILVLPAD, GROUPPAD, euclid-style tile selection) land close to the
best achievable multi-level locality.  This subsystem measures the gap:
it searches the corresponding configuration spaces *empirically*, using
the simulator as the oracle, with candidate batches fanned out through
the parallel memoized :class:`~repro.exec.executor.SweepExecutor`.

Pieces:

* :mod:`repro.search.space` -- :class:`SearchSpace` and the two
  concrete spaces (:func:`pad_space`, :func:`pad_tile_space`);
* :mod:`repro.search.objective` -- minimized figures of merit over
  simulated miss statistics, plus :func:`model_objective`, the analytic
  (simulation-free) scorer backed by :mod:`repro.model`;
* :mod:`repro.search.strategies` -- exhaustive grid, coordinate
  descent, and the two-tier :class:`PredictThenVerifyStrategy` (score
  the whole space with the closed-form predictor, simulate only the
  top-K);
* :mod:`repro.search.tuner` -- :class:`Autotuner`, the batching /
  memoizing / budgeting harness;
* :mod:`repro.search.report` -- the structured :class:`SearchReport`.

Quickstart::

    from repro import ultrasparc_i, DataLayout
    from repro.kernels.registry import get_kernel
    from repro.search import Autotuner, pad_space

    kernel = get_kernel("jacobi")
    program = kernel.program(192)
    hier = ultrasparc_i()
    space = pad_space(program, DataLayout.sequential(program), hier,
                      kernel=kernel)
    report = Autotuner(workers=4).search(space, strategy="coordinate",
                                         budget=64)
    print(report.best_config, report.best_objective)
"""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.search.space": (
        "Dimension", "SearchSpace", "pad_space", "pad_tile_space",
    ),
    "repro.search.objective": (
        "Objective", "ModelObjective", "miss_cost_objective", "model_objective",
    ),
    "repro.search.strategies": (
        "SearchStrategy", "ExhaustiveSearch", "CoordinateDescent", "PredictThenVerifyStrategy", "STRATEGIES",
        "get_strategy",
    ),
    "repro.search.tuner": ("Autotuner",),
    "repro.search.report": ("SearchReport",),
})
