"""Empirical autotuning: search pad/tile/fusion spaces for best layouts.

The paper's claim is that cheap compile-time heuristics (PAD,
MULTILVLPAD, GROUPPAD, euclid-style tile selection) land close to the
best achievable multi-level locality.  This subsystem measures the gap:
it searches the corresponding configuration spaces *empirically*, using
the simulator as the oracle, with candidate batches fanned out through
the parallel memoized :class:`~repro.exec.executor.SweepExecutor`.

Pieces:

* :mod:`repro.search.space` -- :class:`SearchSpace` and the three
  concrete spaces (:func:`pad_space`, :func:`assoc_pad_space`,
  :func:`pad_tile_space`);
* :mod:`repro.search.objective` -- minimized figures of merit over
  simulated miss statistics, plus :func:`model_objective`, the analytic
  (simulation-free) scorer backed by :mod:`repro.model`;
* :mod:`repro.search.strategies` -- exhaustive grid, seeded random
  sampling, coordinate descent, and the two-tier
  :class:`PredictThenVerifyStrategy` (score the whole space with the
  closed-form predictor, simulate only the top-K);
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
    print(report.format())
"""

from repro.search.objective import (
    ModelObjective,
    Objective,
    cycles_objective,
    miss_cost_objective,
    miss_rate_objective,
    model_objective,
)
from repro.search.report import SearchReport
from repro.search.space import (
    Dimension,
    SearchSpace,
    assoc_pad_space,
    pad_space,
    pad_tile_space,
)
from repro.search.strategies import (
    STRATEGIES,
    CoordinateDescent,
    ExhaustiveSearch,
    PredictThenVerifyStrategy,
    RandomSearch,
    SearchStrategy,
    get_strategy,
)
from repro.search.tuner import Autotuner

__all__ = [
    "Dimension",
    "SearchSpace",
    "pad_space",
    "assoc_pad_space",
    "pad_tile_space",
    "Objective",
    "ModelObjective",
    "miss_cost_objective",
    "miss_rate_objective",
    "cycles_objective",
    "model_objective",
    "SearchStrategy",
    "ExhaustiveSearch",
    "RandomSearch",
    "CoordinateDescent",
    "PredictThenVerifyStrategy",
    "STRATEGIES",
    "get_strategy",
    "Autotuner",
    "SearchReport",
]
