"""The exactness proof: which cache levels' miss counts are provable.

:func:`classify_program` / :func:`classify_job` decide, per cache level,
whether the miss count is *provable* -- exact, bit-for-bit equal to the
LRU simulator -- and why not when it is not.  The analytic predictor
(:func:`repro.model.predict_program`) runs this proof first and reports
the proven distinct-line count at every exact level.  Classification is
dominated by the footprint enumeration (:mod:`repro.symbolic.lines`),
itself skipped whenever the capacity pre-filter
(:func:`~repro.analysis.footprint.ref_lines_lower_bound`) rules out the
first level.

Exactness rests on the **no-eviction theorem**: if every set of a level
receives at most ``associativity`` distinct lines over the whole run,
LRU never evicts there, so misses are exactly the distinct-line count,
independent of access order.  The property chains down the hierarchy --
level *i+1* sees the miss stream of level *i*, which in the no-eviction
regime is the first touch of each level-*i* line, covering every
level-*i+1* line of the footprint provided line sizes nest evenly.
Hence exactness is a *prefix* over levels, and each level downgrades
with one of the reasons below (surfaced in the predictor's level notes
and the ``ext_symbolic`` agreement table):

``custom-trace``
    The job uses a kernel trace hook; its addresses are not derivable
    from the affine IR.
``capacity``
    The level provably receives more lines than it holds (pigeonhole:
    some set must receive more lines than its ways), either from one
    reference's line-count lower bound or from the enumerated footprint.
``budget``
    Footprint enumeration exceeded its offset or row budget.
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

from dataclasses import dataclass
from functools import lru_cache

from repro.analysis.footprint import ref_lines_lower_bound
from repro.cache.config import HierarchyConfig
from repro.ir.loops import LoopNest
from repro.ir.program import Program
from repro.layout.layout import DataLayout
from repro.obs.tracer import get_tracer
from repro.symbolic.lines import (
    distinct_lines,
    distinct_offsets,
    is_short,
    max_set_occupancy,
)

__all__ = ["LevelClassification", "classify_program", "classify_job"]


@dataclass(frozen=True)
class LevelClassification:
    """One level's verdict: is its miss count provable?

    ``distinct_lines`` is the exact miss count when ``exact`` (and
    ``None`` otherwise -- a footprint line count is still well-defined
    for inexact levels, but it is *not* the miss count, so it is withheld
    to prevent misuse).  ``cold_misses`` is the level's distinct-line
    count whenever the whole footprint was enumerated and line sizes nest
    down to this level: every line's first touch misses, so it is a
    proven lower bound on the level's misses (and equals them when
    exact).  ``reason`` is one of the downgrade reasons in the module
    docstring, empty when exact.
    """

    name: str
    exact: bool
    distinct_lines: int | None = None
    reason: str = ""
    detail: str = ""
    cold_misses: int | None = None


@lru_cache(maxsize=256)
def _capacity_verdict(
    program: Program,
    nests: tuple[LoopNest, ...],
    geometry: tuple[tuple[str, int, int], ...],
) -> tuple[int, str] | None:
    """The first level the capacity pre-filter rules out, with its detail.

    If one reference alone provably touches more lines than a level
    holds, some set receives more lines than it has ways (pigeonhole),
    so the no-eviction condition cannot hold -- without enumerating a
    single offset.  Every level below is then ``inherited``, so the scan
    stops there.  The bound ignores layout bases (it depends only on
    loop strides), which is safe: bases shift offsets, never shrink a
    reference's own line count below the bound.  Hence the verdict is
    cached per ``(program, nests, geometry)``, where ``geometry`` holds
    each level's ``(name, line_size, num_lines)``.
    """
    refs = [
        (nest, ref.array, ref.offset_expr(program.decl(ref.array)))
        for nest in nests
        for ref, _ in nest.unique_refs
    ]
    for index, (name, line_size, num_lines) in enumerate(geometry):
        for nest, array, expr in refs:
            bound = ref_lines_lower_bound(nest, expr, line_size)
            if bound > num_lines:
                return index, (
                    f"{array} alone spans >= {bound} lines, "
                    f"{name} holds {num_lines}"
                )
    return None


def _downgrade(
    name: str, reason: str, detail: str = "", cold_misses: int | None = None
) -> LevelClassification:
    return LevelClassification(
        name, False, reason=reason, detail=detail, cold_misses=cold_misses
    )


def classify_program(
    program: Program,
    layout: DataLayout,
    hierarchy: HierarchyConfig,
    nests: tuple[LoopNest, ...] | None = None,
) -> tuple[LevelClassification, ...]:
    """Per-level exactness verdicts for a program (or nest subset).

    Cheap by construction.  A program of at most
    :data:`~repro.symbolic.lines.MAX_OFFSETS` references is enumerated in
    full, which costs little and gives every level its cold misses.  On
    a longer one, the capacity pre-filter answers the common full-size
    case in microseconds; enumeration runs only when the pre-filter does
    not rule out the first level, stops as soon as the first level is
    seen to overflow, and is itself budgeted.
    """
    selected = tuple(nests) if nests is not None else tuple(program.nests)
    levels = hierarchy.levels
    short = is_short(selected)
    with get_tracer().span(
        "symbolic.classify", cat="symbolic", program=program.name
    ) as span:
        verdict = _capacity_verdict(
            program,
            selected,
            tuple((c.name, c.line_size, c.num_lines) for c in levels),
        )
        ruled_out, capacity_detail = verdict or (len(levels), "")
        offsets = None
        if short or ruled_out > 0:
            offsets = distinct_offsets(
                program, layout, selected, stop=None if short else levels[0]
            )
        # A stopped enumeration returns a partial set that overflows the
        # first level; any other set is the whole footprint.
        complete = offsets is not None and (
            short
            or distinct_lines(offsets, levels[0].line_size).size
            <= levels[0].num_lines
        )

        out: list[LevelClassification] = []
        nested = True
        for i, cache in enumerate(levels):
            nested = nested and (
                i == 0 or cache.line_size % levels[i - 1].line_size == 0
            )
            lines = None
            if offsets is not None and nested:
                lines = distinct_lines(offsets, cache.line_size)
            cold = int(lines.size) if complete and lines is not None else None
            if out and not out[-1].exact:
                cls = _downgrade(cache.name, "inherited", cold_misses=cold)
            elif i == ruled_out:
                cls = _downgrade(cache.name, "capacity", capacity_detail, cold)
            elif not nested:
                cls = _downgrade(
                    cache.name,
                    "line-split",
                    f"line {cache.line_size} not a multiple of "
                    f"{levels[i - 1].line_size}",
                )
            elif lines is None:
                cls = _downgrade(
                    cache.name, "budget", "footprint enumeration exceeded its budget"
                )
            elif lines.size > cache.num_lines:
                cls = _downgrade(
                    cache.name,
                    "capacity",
                    f"footprint spans >= {lines.size} lines, "
                    f"{cache.name} holds {cache.num_lines}",
                    cold,
                )
            elif (
                occupancy := max_set_occupancy(lines, cache)
            ) > cache.associativity:
                cls = _downgrade(
                    cache.name,
                    "interference",
                    f"a set receives {occupancy} lines, {cache.associativity}-way",
                    cold,
                )
            else:
                count = int(lines.size)
                cls = LevelClassification(
                    cache.name, True, distinct_lines=count, cold_misses=count
                )
            out.append(cls)
        span.set(
            exact_levels=sum(1 for c in out if c.exact),
            levels=len(out),
            enumerated=offsets is not None,
        )
    return tuple(out)


def classify_job(job) -> tuple[LevelClassification, ...]:
    """Classify one :class:`~repro.exec.jobs.SimJob`.

    Jobs with a custom kernel trace hook are never exact -- their
    addresses are not a function of the affine IR.
    """
    if job.kernel is not None:
        return tuple(
            _downgrade(
                cache.name,
                "custom-trace",
                f"kernel {job.kernel!r} uses a custom trace hook",
            )
            for cache in job.hierarchy.levels
        )
    nests = None
    if job.nest_index is not None:
        nests = (job.program.nests[job.nest_index],)
    return classify_program(job.program, job.layout, job.hierarchy, nests)
