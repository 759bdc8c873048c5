"""Simulation jobs: one (program, layout, hierarchy) point of a sweep.

A :class:`SimJob` is a picklable value object, so a
:class:`~repro.exec.executor.SweepExecutor` can ship it to worker
processes.  Kernels with custom trace hooks (IRR's irregular gathers) are
referenced *by registry name* rather than by callable, which keeps jobs
independent of process state; ordinary kernels trace identically to the
generic program path and deliberately share its cache key.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from repro.cache.config import HierarchyConfig
from repro.cache.stats import SimulationResult
from repro.cache.streaming import StreamingHierarchy
from repro.errors import ReproError
from repro.exec.hashing import job_key
from repro.ir.program import Program
from repro.layout.layout import DataLayout
from repro.trace.generator import DEFAULT_CHUNK_REFS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.kernels.registry import Kernel

__all__ = ["SimJob"]


@dataclass(frozen=True)
class SimJob:
    """One independent simulation of a sweep.

    ``kernel`` names a registry kernel whose *custom* trace hook must be
    used; leave it None for the generic vectorized trace.  ``nest_index``
    restricts the trace to one nest (cold caches).  ``tag`` is opaque caller
    metadata (figure/version labels); it never reaches the cache key.
    ``timeline_window`` asks :meth:`run_timed` for windowed per-level
    telemetry (refs per window; None/0 disables); like ``tag`` it is
    pure observability and never reaches the cache key -- the simulated
    counts are bit-identical with or without it.
    """

    program: Program
    layout: DataLayout
    hierarchy: HierarchyConfig
    kernel: str | None = None
    nest_index: int | None = None
    max_chunk_refs: int = DEFAULT_CHUNK_REFS
    tag: tuple = field(default=(), compare=False)
    timeline_window: int | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.kernel is not None and self.nest_index is not None:
            raise ReproError("a job traces either a kernel or one nest, not both")
        if self.nest_index is not None and not (
            0 <= self.nest_index < len(self.program.nests)
        ):
            raise ReproError(
                f"nest_index {self.nest_index} out of range for program "
                f"with {len(self.program.nests)} nests"
            )
        if self.max_chunk_refs <= 0:
            raise ReproError("max_chunk_refs must be positive")
        object.__setattr__(self, "tag", tuple(self.tag))

    @classmethod
    def for_kernel(
        cls,
        kernel: "Kernel",
        program: Program,
        layout: DataLayout,
        hierarchy: HierarchyConfig,
        max_chunk_refs: int = DEFAULT_CHUNK_REFS,
        tag: tuple = (),
    ) -> "SimJob":
        """Job for a registry kernel, honoring its custom trace hook.

        Kernels without a hook produce exactly the generic program trace,
        so their jobs omit the kernel name and share cache entries with
        :func:`repro.simulate.simulate_program`.
        """
        name = kernel.name if kernel.custom_trace is not None else None
        return cls(
            program=program,
            layout=layout,
            hierarchy=hierarchy,
            kernel=name,
            max_chunk_refs=max_chunk_refs,
            tag=tag,
        )

    def trace_spec(self) -> tuple:
        """The trace-mode component of the cache key."""
        if self.kernel is not None:
            return ("kernel", self.kernel)
        if self.nest_index is not None:
            return ("nest", self.nest_index)
        return ("program",)

    def key(self, backend: str = "sim") -> str:
        """Stable content hash identifying this job's result.

        ``backend`` names the backend whose result the key addresses;
        backends get disjoint keys so an oracle result can never be
        served for a simulator request (or vice versa).
        """
        return job_key(
            self.program, self.layout, self.hierarchy, self.trace_spec(), backend
        )

    def chunks(self) -> Iterator:
        """The chunks the job's hierarchy simulates: the generated
        trace cut as L1's kept line stream
        (:func:`~repro.trace.generator.program_line_chunks`), or a custom
        kernel hook's address chunks."""
        if self.kernel is not None:
            return self.trace_chunks()
        from repro.trace.generator import program_line_chunks

        nests = None
        if self.nest_index is not None:
            nests = (self.program.nests[self.nest_index],)
        return program_line_chunks(
            self.program, self.layout, self.hierarchy, self.max_chunk_refs, nests
        )

    def trace_chunks(self) -> Iterator:
        """The job's address-trace chunks, what the sequential oracle
        replays."""
        # Imported lazily: the kernel registry imports transforms/layout
        # modules that in turn may import repro.exec.
        if self.kernel is not None:
            from repro.kernels.registry import get_kernel

            return get_kernel(self.kernel).trace_chunks(self.program, self.layout)
        from repro.trace.generator import nest_trace_chunks, program_trace_chunks

        if self.nest_index is not None:
            nest = self.program.nests[self.nest_index]
            return nest_trace_chunks(
                self.program, self.layout, nest, self.max_chunk_refs
            )
        return program_trace_chunks(self.program, self.layout, self.max_chunk_refs)

    def run(self) -> SimulationResult:
        """Simulate this job (pure computation, no memoization)."""
        return self.run_timed()[0]

    def run_timed(self) -> tuple[SimulationResult, list | None]:
        """Simulate and also return timeline rows when requested.

        The second element is ``Timeline.rows()`` (plain picklable
        lists) when ``timeline_window`` is set, else None.  The
        simulation itself is identical either way.
        """
        timeline = None
        if self.timeline_window:
            from repro.obs.timeline import Timeline

            timeline = Timeline(
                levels=tuple(cfg.name for cfg in self.hierarchy),
                window_refs=self.timeline_window,
            )
        sim = StreamingHierarchy(self.hierarchy, timeline=timeline)
        sim.feed_all(self.chunks())
        result = sim.result()
        return result, (timeline.rows() if timeline is not None else None)
