"""Shared experiment plumbing: simulation, the cycle model, formatting.

The cycle model substitutes for the paper's UltraSparc wall-clock numbers
(DESIGN.md, Substitutions): every reference pays the L1 hit cost, every
miss pays the next level's cost, and floating-point work pays a fixed
per-flop cost at an UltraSparc-era clock.  Absolute MFLOPS are not
comparable to 1999 hardware; relative shapes (who wins, where curves
cross) are what the reproduction targets.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.config import HierarchyConfig
from repro.cache.stats import SimulationResult
from repro.exec.executor import _UNSET, SweepExecutor, execute_one
from repro.exec.jobs import SimJob
from repro.exec.store import ResultStore
from repro.ir.program import Program
from repro.kernels.registry import Kernel
from repro.layout.layout import DataLayout

__all__ = [
    "CLOCK_HZ",
    "FLOP_CYCLES",
    "CYCLE_MODEL_NOTE",
    "VersionResult",
    "simulate_kernel_layout",
    "run_sweep",
    "estimated_cycles",
    "mflops",
    "improvement_pct",
]

CLOCK_HZ = 143_000_000  # UltraSparc I clock
FLOP_CYCLES = 2.0  # per-flop cost without scalar replacement / unrolling

CYCLE_MODEL_NOTE = (
    "timings are the cycle model (simulated misses x UltraSparc-era "
    "penalties), not hardware wall-clock; see DESIGN.md Substitutions"
)


@dataclass(frozen=True)
class VersionResult:
    """One (program, layout-version) measurement."""

    program: str
    version: str
    result: SimulationResult
    flops: int

    def miss_rate(self, level: str) -> float:
        return self.result.miss_rate(level)

    def cycles(self, hierarchy: HierarchyConfig) -> float:
        return estimated_cycles(self.result, hierarchy, self.flops)


def simulate_kernel_layout(
    kernel: Kernel,
    program: Program,
    layout: DataLayout,
    hierarchy: HierarchyConfig,
    store=_UNSET,
    backend: str = "sim",
) -> SimulationResult:
    """Full-program simulation honoring the kernel's custom trace hook.

    ``backend`` routes through the same executor key logic a sweep
    uses (see :func:`repro.exec.execute_one`).
    """
    job = SimJob.for_kernel(kernel, program, layout, hierarchy)
    return execute_one(job, store=store, backend=backend)


def run_sweep(
    jobs: list[SimJob],
    executor: SweepExecutor | None = None,
    workers: int | None = None,
    store: ResultStore | None = None,
) -> list[SimulationResult]:
    """Run an experiment's job list through a sweep executor.

    Every figure/extension harness funnels its simulations through here:
    pass ``executor`` to share one (and read its stats afterwards), or
    just ``workers``/``store`` for a throwaway one.  The default (no
    arguments) is a serial, unmemoized run -- exactly the historic
    behavior of the experiment drivers.
    """
    if executor is None:
        executor = SweepExecutor(workers=workers if workers is not None else 1,
                                 store=store)
    return executor.run(jobs)


def estimated_cycles(
    result: SimulationResult,
    hierarchy: HierarchyConfig,
    flops: int,
    flop_cycles: float = FLOP_CYCLES,
) -> float:
    """Memory cycles from the simulation plus compute cycles for the flops."""
    return result.cycles(hierarchy) + flops * flop_cycles


def mflops(flops: int, cycles: float, clock_hz: float = CLOCK_HZ) -> float:
    """Achieved MFLOPS at the modeled clock."""
    if cycles <= 0:
        return 0.0
    seconds = cycles / clock_hz
    return flops / seconds / 1e6


def improvement_pct(orig_cycles: float, opt_cycles: float) -> float:
    """Execution-time improvement relative to the original, in percent.

    Positive = faster, matching the paper's "Improvement (UltraSparc)" axes.
    """
    if orig_cycles <= 0:
        return 0.0
    return 100.0 * (orig_cycles - opt_cycles) / orig_cycles
