"""The symbolic analysis engine: classify, then count.

Two entry points with a deliberate cost split:

* :func:`classify_program` / :func:`classify_job` decide, per cache
  level, whether the symbolic tier is *authoritative* -- exact,
  bit-for-bit equal to the LRU simulator -- and why not when it is not.
  Classification never touches the analytic predictor and is dominated
  by the footprint enumeration, itself skipped whenever the capacity
  pre-filter (:func:`~repro.analysis.footprint.ref_lines_lower_bound`)
  proves exactness impossible.
* :func:`analyze_program` / :func:`analyze_job` produce the full
  :class:`~repro.symbolic.terms.SymbolicStats`: exact cold terms where
  the classification allows, analytic sweep/conflict terms from
  :mod:`repro.model.predictor` everywhere else.

Exactness rests on the **no-eviction theorem**: if every set of a level
receives at most ``associativity`` distinct lines over the whole run,
LRU never evicts there, so misses are exactly the distinct-line count,
independent of access order.  The property chains down the hierarchy --
level *i+1* sees the miss stream of level *i*, which in the no-eviction
regime is the first touch of each level-*i* line, covering every
level-*i+1* line of the footprint provided line sizes nest evenly.
Hence exactness is a *prefix* over levels, and each level downgrades
with one of the reasons below (surfaced in notes, metrics, and the
``ext_symbolic`` agreement table):

``custom-trace``
    The job uses a kernel trace hook; its addresses are not derivable
    from the affine IR.
``capacity``
    A single reference provably touches more lines than the level holds
    (pigeonhole: some set must receive more lines than its ways).
``budget``
    Footprint enumeration exceeded its offset/step budget.
``line-split``
    The level's line size is not a multiple of the level above's, so
    the first-touch stream need not cover this level's footprint lines.
``interference``
    Some set receives more distinct lines than it has ways; evictions
    occur and order matters.
``inherited``
    A level above is already inexact, so this level's access stream is
    itself approximate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.analysis.footprint import ref_lines_lower_bound
from repro.cache.config import HierarchyConfig
from repro.ir.loops import LoopNest
from repro.ir.program import Program
from repro.layout.layout import DataLayout
from repro.model.predictor import predict_program
from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer
from repro.symbolic.lines import (
    DEFAULT_MAX_OFFSETS,
    DEFAULT_MAX_STEPS,
    distinct_lines,
    distinct_offsets,
    max_set_occupancy,
)
from repro.symbolic.terms import SymbolicLevel, SymbolicStats, SymbolicTerm

__all__ = [
    "LevelClassification",
    "classify_program",
    "classify_job",
    "analyze_program",
    "analyze_job",
]


@dataclass(frozen=True)
class LevelClassification:
    """One level's verdict: is the symbolic count authoritative here?

    ``distinct_lines`` is the exact miss count when ``exact`` (and
    ``None`` otherwise -- a footprint line count is still well-defined
    for inexact levels, but it is *not* the miss count, so it is withheld
    to prevent misuse).  ``reason`` is one of the downgrade reasons in
    the module docstring, empty when exact.
    """

    name: str
    exact: bool
    distinct_lines: int | None = None
    reason: str = ""
    detail: str = ""


def _selected_nests(
    program: Program, nests: tuple[LoopNest, ...] | None
) -> tuple[LoopNest, ...]:
    return tuple(nests) if nests is not None else tuple(program.nests)


def _total_refs(nests: tuple[LoopNest, ...]) -> int:
    return sum(nest.iterations() * nest.refs_per_iteration for nest in nests)


def _capacity_reasons(
    program: Program,
    layout: DataLayout,
    nests: tuple[LoopNest, ...],
    hierarchy: HierarchyConfig,
) -> dict[str, str]:
    """Level name -> detail for levels the pre-filter proves inexact.

    If one reference alone provably touches more lines than a level
    holds, some set receives more lines than it has ways (pigeonhole),
    so the no-eviction condition cannot hold -- without enumerating a
    single offset.  The bound ignores layout bases (it depends only on
    loop strides), which is safe: bases shift offsets, never shrink a
    reference's own line count below the bound.
    """
    out: dict[str, str] = {}
    for cache in hierarchy.levels:
        for nest in nests:
            done = False
            for ref in nest.refs:
                decl = program.decl(ref.array)
                bound = ref_lines_lower_bound(
                    nest, ref.offset_expr(decl), cache.line_size
                )
                if bound > cache.num_lines:
                    out[cache.name] = (
                        f"{ref.array} alone spans >= {bound} lines, "
                        f"{cache.name} holds {cache.num_lines}"
                    )
                    done = True
                    break
            if done:
                break
    return out


def classify_program(
    program: Program,
    layout: DataLayout,
    hierarchy: HierarchyConfig,
    nests: tuple[LoopNest, ...] | None = None,
    max_offsets: int = DEFAULT_MAX_OFFSETS,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> tuple[LevelClassification, ...]:
    """Per-level exactness verdicts for a program (or nest subset).

    Cheap by construction: the capacity pre-filter answers the common
    full-size case in microseconds; enumeration runs only when no level
    is ruled out up front, and is itself budgeted.
    """
    selected = _selected_nests(program, nests)
    tracer = get_tracer()
    with tracer.span(
        "symbolic.classify", cat="symbolic", program=program.name
    ) as span:
        capacity = _capacity_reasons(program, layout, selected, hierarchy)
        offsets: np.ndarray | None = None
        enumerated = False
        # Enumerate only if some level might be exact: the capacity
        # verdict for L1 dooms every level below it anyway.
        if hierarchy.levels[0].name not in capacity:
            offsets = distinct_offsets(
                program, layout, selected, max_offsets, max_steps
            )
            enumerated = True

        out: list[LevelClassification] = []
        exact_above = True
        prev_line = None
        for cache in hierarchy.levels:
            if not exact_above:
                out.append(
                    LevelClassification(cache.name, False, reason="inherited")
                )
                continue
            if cache.name in capacity:
                cls = LevelClassification(
                    cache.name, False, reason="capacity", detail=capacity[cache.name]
                )
            elif prev_line is not None and cache.line_size % prev_line != 0:
                cls = LevelClassification(
                    cache.name,
                    False,
                    reason="line-split",
                    detail=f"line {cache.line_size} not a multiple of {prev_line}",
                )
            elif offsets is None:
                cls = LevelClassification(
                    cache.name,
                    False,
                    reason="budget",
                    detail="footprint enumeration exceeded its budget",
                )
            else:
                lines = distinct_lines(offsets, cache.line_size)
                occupancy = max_set_occupancy(lines, cache)
                if occupancy > cache.associativity:
                    cls = LevelClassification(
                        cache.name,
                        False,
                        reason="interference",
                        detail=(
                            f"a set receives {occupancy} lines, "
                            f"{cache.associativity}-way"
                        ),
                    )
                else:
                    cls = LevelClassification(
                        cache.name, True, distinct_lines=int(lines.size)
                    )
            out.append(cls)
            exact_above = cls.exact
            prev_line = cache.line_size
        span.set(
            exact_levels=sum(1 for c in out if c.exact),
            levels=len(out),
            enumerated=enumerated,
        )
    return tuple(out)


def classify_job(
    job,
    max_offsets: int = DEFAULT_MAX_OFFSETS,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> tuple[LevelClassification, ...]:
    """Classify one :class:`~repro.exec.jobs.SimJob`.

    Jobs with a custom kernel trace hook are never exact -- their
    addresses are not a function of the affine IR.
    """
    if job.kernel is not None:
        return tuple(
            LevelClassification(
                cache.name,
                False,
                reason="custom-trace",
                detail=f"kernel {job.kernel!r} uses a custom trace hook",
            )
            for cache in job.hierarchy.levels
        )
    nests = None
    if job.nest_index is not None:
        nests = (job.program.nests[job.nest_index],)
    return classify_program(
        job.program, job.layout, job.hierarchy, nests, max_offsets, max_steps
    )


def _symbolic_levels(
    program: Program,
    layout: DataLayout,
    hierarchy: HierarchyConfig,
    nests: tuple[LoopNest, ...],
    classification: tuple[LevelClassification, ...],
) -> tuple[SymbolicLevel, ...]:
    predicted = None  # the analytic model, built only if some level needs it
    levels: list[SymbolicLevel] = []
    for cache, cls in zip(hierarchy.levels, classification):
        if cls.exact:
            levels.append(
                SymbolicLevel(
                    name=cache.name,
                    terms=(
                        SymbolicTerm(
                            "cold",
                            float(cls.distinct_lines),
                            True,
                            f"{cls.distinct_lines} distinct {cache.name} lines, "
                            "no evictions",
                        ),
                    ),
                )
            )
            continue
        if predicted is None:
            predicted = predict_program(program, layout, hierarchy, nests=nests)
        pred = next(p for p in predicted.predictions if p.name == cache.name)
        terms = [
            SymbolicTerm(
                "sweep",
                max(0.0, pred.misses - pred.conflict_misses),
                False,
                "predictor sweep/capacity estimate",
            )
        ]
        if pred.conflict_misses > 0:
            terms.append(
                SymbolicTerm(
                    "conflict",
                    pred.conflict_misses,
                    False,
                    "set-mapping period interference estimate",
                )
            )
        note = cls.reason if not cls.detail else f"{cls.reason}: {cls.detail}"
        levels.append(SymbolicLevel(name=cache.name, terms=tuple(terms), note=note))
    return tuple(levels)


def analyze_program(
    program: Program,
    layout: DataLayout,
    hierarchy: HierarchyConfig,
    nests: tuple[LoopNest, ...] | None = None,
    classification: tuple[LevelClassification, ...] | None = None,
    max_offsets: int = DEFAULT_MAX_OFFSETS,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> SymbolicStats:
    """Full symbolic result: exact cold terms where the classification
    allows, analytic terms elsewhere.

    Pass a precomputed ``classification`` (from :func:`classify_program`
    with identical arguments) to avoid re-enumerating the footprint.
    """
    start = time.perf_counter()
    selected = _selected_nests(program, nests)
    if classification is None:
        classification = classify_program(
            program, layout, hierarchy, selected, max_offsets, max_steps
        )
    total_refs = _total_refs(selected)
    stats = SymbolicStats(
        total_refs=total_refs,
        levels=_symbolic_levels(
            program, layout, hierarchy, selected, classification
        ),
    )
    metrics = get_metrics()
    metrics.counter("symbolic.analyses").inc()
    metrics.counter("symbolic.refs").inc(total_refs)
    if stats.exact:
        metrics.counter("symbolic.exact").inc()
    else:
        metrics.counter("symbolic.downgrades").inc()
    metrics.histogram("symbolic.analyze_seconds").observe(
        time.perf_counter() - start
    )
    return stats


def analyze_job(
    job,
    classification: tuple[LevelClassification, ...] | None = None,
    max_offsets: int = DEFAULT_MAX_OFFSETS,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> SymbolicStats:
    """Symbolic result for one :class:`~repro.exec.jobs.SimJob` -- the
    trace-free counterpart of ``job.run()``."""
    if classification is None:
        classification = classify_job(job, max_offsets, max_steps)
    nests = None
    if job.nest_index is not None:
        nests = (job.program.nests[job.nest_index],)
    return analyze_program(
        job.program,
        job.layout,
        job.hierarchy,
        nests,
        classification,
        max_offsets,
        max_steps,
    )
