"""One-call program simulation: IR + layout + hierarchy -> miss statistics.

This is the main entry point the experiments and examples use::

    from repro import simulate_program, ultrasparc_i
    result = simulate_program(program, layout, ultrasparc_i())
    print(result.miss_rate("L1"), result.miss_rate("L2"))

It routes through :mod:`repro.exec`: the simulation is expressed as a
:class:`~repro.exec.jobs.SimJob` and memoized against the process-wide
default :class:`~repro.exec.store.ResultStore` (off unless
``REPRO_CACHE_DIR`` is set; ``store=`` overrides it per call).  Sweeps over many configurations should build the jobs directly
and hand them to a :class:`~repro.exec.executor.SweepExecutor`.
"""

from __future__ import annotations

from repro.cache.config import HierarchyConfig
from repro.cache.stats import SimulationResult
from repro.exec.executor import _UNSET, execute_one
from repro.exec.jobs import SimJob
from repro.ir.program import Program
from repro.layout.layout import DataLayout

__all__ = ["simulate_program"]


def simulate_program(
    program: Program,
    layout: DataLayout,
    hierarchy: HierarchyConfig,
    store=_UNSET,
    backend: str = "sim",
) -> SimulationResult:
    """Trace the whole program under ``layout`` and simulate the hierarchy.

    ``store`` overrides the default result store (None disables
    memoization for this call); ``backend`` selects the executor backend
    (``"sim"`` or ``"oracle"``), routed through exactly the same key
    logic a :class:`~repro.exec.executor.SweepExecutor` sweep uses.
    """
    job = SimJob(program=program, layout=layout, hierarchy=hierarchy)
    return execute_one(job, store=store, backend=backend)
