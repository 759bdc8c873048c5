"""Cheap per-job cost estimates for the sweep scheduler.

The scheduler (:mod:`repro.exec.scheduler`) dispatches pending jobs
longest-first, so a full-size ERLE straggler starts immediately instead
of serializing the tail of a sweep while short jobs idle the pool.  For
that ordering to be free it must come from the IR alone -- no traces,
no simulation:

* the **primary** cost is the dynamic reference count, computed exactly
  from loop trip counts (:meth:`repro.ir.loops.LoopNest.iterations`
  counts triangular bounds through the same vectorized row enumeration,
  :meth:`~repro.ir.loops.LoopNest.rows`, that the trace generator
  uses, so the estimate counts precisely the references the simulator
  will stream);
* the **refinement** is the symbolic analysis's working-set lower bound
  (:func:`repro.analysis.footprint.ref_lines_lower_bound` over each
  reference's coefficient column in the program's lowered form,
  microseconds per reference): of two jobs with equal reference counts,
  the one touching more distinct lines compresses worse in the
  vectorized simulator and runs longer.
"""

from __future__ import annotations

from repro.analysis.footprint import ref_line_bounds
from repro.ir.lowering import lower

__all__ = ["estimate_job_refs", "estimate_job_lines", "job_cost"]


def estimate_job_refs(job) -> int:
    """Exact dynamic reference count of a job's generic trace.

    Kernels with custom trace hooks (IRR's gathers) may deviate slightly
    from the generic count; for cost *ordering* the generic count is the
    right estimate either way.
    """
    return sum(
        nest.iterations() * nest.refs_per_iteration for nest in job.program.nests
    )


def estimate_job_lines(job, line_size: int | None = None) -> int:
    """Working-set lower bound in distinct cache lines.

    Sum of per-reference :func:`ref_lines_lower_bound` values at the
    hierarchy's smallest line size (layout bases are ignored -- they
    shift offsets, never shrink a reference's own line count).  A lower
    bound, not an exact footprint: good enough to order equal-ref jobs,
    at microseconds per job.
    """
    if line_size is None:
        line_size = min(c.line_size for c in job.hierarchy)
    lowered = lower(job.program)
    total = 0
    for nest in job.program.nests:
        low = lowered.nest(nest)
        bounds = ref_line_bounds(low, line_size)
        total += sum(bounds[u] for u in low.index.tolist())
    return total


def job_cost(job) -> tuple[int, int]:
    """Sortable cost estimate: ``(dynamic refs, working-set lines)``.

    Descending sort on this tuple is the scheduler's longest-first
    dispatch order; the lines refinement breaks ties between jobs whose
    reference counts agree (layout variants of one sweep point usually
    do).  Deterministic by construction -- both components come from the
    IR, never from timing.
    """
    return (estimate_job_refs(job), estimate_job_lines(job))
