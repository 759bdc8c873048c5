"""One tuning request, end to end, through a shared executor.

:func:`run_tuning` is the CPU-bound heart of the service: the paper's
heuristic pipeline (:func:`repro.driver.optimize`), then an optional
empirical pad search around the heuristic layout (seeded with it, so the
recommendation is never worse), then one final evaluation of the chosen
layout -- every simulation flowing through the caller's
:class:`~repro.exec.executor.SweepExecutor` and its persistent result
store: the ``"predict"`` search strategy spends the simulation budget
only on analytically top-ranked candidates, and anything simulated once
(by any request, any process) is served from the store thereafter.

The function is synchronous and thread-safe with respect to *distinct*
executors: the server runs it in a thread pool, one executor per worker
thread, all sharing one store directory.
"""

from __future__ import annotations

import time

from repro.driver import optimize
from repro.exec.executor import SweepExecutor
from repro.exec.jobs import SimJob
from repro.obs.tracer import get_tracer
from repro.search.space import pad_space
from repro.search.tuner import Autotuner
from repro.service.protocol import SERVICE_SCHEMA, TuningRequest

__all__ = ["run_tuning", "run_tuning_traced"]


def run_tuning_traced(req: TuningRequest, executor: SweepExecutor,
                      trace_id: str | None = None,
                      parent_span: int | None = None,
                      fn=None) -> dict:
    """:func:`run_tuning` under the admitting request's trace context.

    Runs in a pool thread with no live spans of its own; the scope
    re-parents everything the pipeline records (``service.tune``,
    ``exec.sweep``, ``exec.job``, simulator chunk spans) under the HTTP
    request's reserved root span and stamps the ``trace_id`` into their
    args -- that is what makes ``report --trace-id`` able to reconstruct
    one request end to end.

    ``fn`` lets the server pass its own (patchable) ``run_tuning``
    reference; the scope wraps whatever actually runs.
    """
    tracer = get_tracer()
    ctx = {"trace_id": trace_id} if trace_id is not None else {}
    with tracer.scope(parent_id=parent_span, **ctx):
        return (fn or run_tuning)(req, executor)


def run_tuning(req: TuningRequest, executor: SweepExecutor) -> dict:
    """Tune one request; returns the JSON-able response payload.

    The payload carries the recommended layout (array order, pads,
    padded shapes), the evaluated per-level miss rates and cycle
    estimate for it, the driver's decision log, the search summary when
    one ran, and provenance: how many jobs the request cost and how
    each was answered (store hits vs simulated).
    """
    t0 = time.time()
    tracer = get_tracer()
    mark = executor.mark()
    kern = None
    if req.kernel is not None:
        from repro.kernels.registry import get_kernel

        kern = get_kernel(req.kernel)

    with tracer.span("service.tune", cat="service",
                     program=req.program.name, strategy=req.strategy,
                     search=req.search):
        program, layout, report = optimize(
            req.program, req.hierarchy, strategy=req.strategy
        )

        search_summary = None
        searched = layout.order[1:]
        if req.search != "none" and searched:
            heuristic = tuple(
                layout.pads[layout.index_of(a)] for a in searched
            )
            space = pad_space(
                program, layout, req.hierarchy,
                kernel=kern,
                max_lines=req.max_lines,
                include=dict(zip(searched, heuristic)),
                name=f"pad[{program.name}:{req.strategy}]",
            )
            tuner = Autotuner(executor=executor)
            sr = tuner.search(
                space,
                strategy=req.search,
                budget=req.budget,
                seed=req.seed,
                baseline=heuristic,
            )
            layout = layout.with_pads(dict(zip(searched, sr.best_config)))
            search_summary = {
                "strategy": sr.strategy,
                "space": sr.space,
                "evaluations": sr.evaluations,
                "baseline_objective": sr.baseline_objective,
                "best_objective": sr.best_objective,
                "gap_pct": sr.gap_pct,
                "stopped": sr.stopped,
            }
            report.log(
                f"search({sr.strategy}, budget={req.budget}): objective "
                f"{sr.baseline_objective:.6g} -> {sr.best_objective:.6g} "
                f"in {sr.evaluations} evaluations"
            )
        elif req.search != "none":
            report.log("search skipped: single-array layout has no pad space")

        # Final evaluation of the recommended layout.  When the search
        # already simulated this exact point it replays from the store.
        if kern is not None:
            job = SimJob.for_kernel(kern, program, layout, req.hierarchy)
        else:
            job = SimJob(program=program, layout=layout, hierarchy=req.hierarchy)
        result = executor.run([job])[0]

    stats = executor.cumulative_stats(mark)
    shapes = {a.name: list(a.shape) for a in program.arrays}
    return {
        "schema": SERVICE_SCHEMA,
        "program": req.program.name,
        "request": {
            "strategy": req.strategy,
            "search": req.search,
            "budget": req.budget,
            "max_lines": req.max_lines,
            "seed": req.seed,
        },
        "recommendation": {
            "order": list(layout.order),
            "pads": {a: layout.pads[layout.index_of(a)] for a in layout.order},
            "shapes": shapes,
        },
        "evaluation": {
            "total_refs": result.total_refs,
            "levels": [
                {
                    "name": lv.name,
                    "accesses": lv.accesses,
                    "misses": lv.misses,
                    "miss_rate": result.miss_rate(lv.name),
                }
                for lv in result.levels
            ],
            "cycles": result.cycles(req.hierarchy),
        },
        "decisions": list(report.decisions),
        "search": search_summary,
        "provenance": {
            "jobs": stats.jobs,
            "store_hits": stats.cache_hits,
            "simulated": stats.simulated_jobs,
            "sim_seconds": stats.sim_seconds,
            "wall_seconds": stats.wall_seconds,
        },
        "seconds": time.time() - t0,
    }
