"""The closed-form multi-level miss predictor.

Maps ``(program IR, layout, hierarchy)`` to predicted per-level miss
counts without generating a trace, in the spirit of the paper's "simple
cache model" (Section 6.4) but covering every axis the search subsystem
tunes over:

* **spatial misses** from reference strides against each level's line
  size (one miss per line's worth of iterations along the innermost
  address-varying loop, the Wolf & Lam self-reuse estimate);
* **conflict misses** from set-mapping overlap of uniformly related
  reference pairs, direct-mapped *and* k-way via the ``S/k`` mapping
  period (:mod:`repro.model.conflicts`) -- a thrashing reference misses
  on every iteration, which is the paper's severe-conflict closed form;
* **group reuse** through the layout diagram: a trailing reference whose
  arc is exploited at a level is charged nothing there;
* **capacity and cross-nest temporal reuse** from the footprint
  machinery: a reference whose span fits a level pays one sweep of
  misses (and nothing at all when a previous nest left the array
  resident); one that does not fit re-faults on every revisit of its
  varying subspace.

Every layout-independent term -- a reference's strides, sweep length,
span and revisits, the diagram's dots and arcs, the footprints -- is read
from the program's lowered form (:func:`repro.ir.lowering.lower`) and
computed once per program; a prediction adds only the layout's bases.
The per-reference cost is O(loops x levels); a whole-program prediction
is O(refs^2) at worst (the pairwise conflict graph), microseconds against
the simulator's O(trace).  That asymmetry is what makes the
predict-then-verify search strategy pay off: score everything
analytically, simulate only what looks good.

Before any of these terms, the exactness proof of :mod:`repro.symbolic`
runs: every level in the *no-eviction* regime (no set receives more
distinct lines than it has ways) misses exactly once per distinct line,
so those levels get the proven count, flagged ``exact``.  The terms
above estimate every other level, whose ``note`` records why the proof
failed there; an estimate never falls below the level's proven cold
misses (its distinct-line count) when the proof enumerated them.

Accuracy contract: estimated levels are built to *rank* layouts, not to
hit miss counts exactly.  Resonant layouts (the severe-conflict closed
form) are estimated exactly; smooth layouts carry O(1) per-array error
from boundary effects.  See ``docs/model.md`` for the measured error
envelope.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.cache.config import CacheConfig, HierarchyConfig
from repro.cache.stats import LevelStats, SimulationResult
from repro.errors import AnalysisError
from repro.ir.loops import LoopNest
from repro.ir.program import Program
from repro.ir.lowering import LoweredNest, lower
from repro.layout.layout import DataLayout
from repro.model.conflicts import thrashing_refs
from repro.symbolic import classify_job

__all__ = [
    "LevelPrediction",
    "NestPrediction",
    "PredictedStats",
    "predict_nest",
    "predict_job",
]


@dataclass(frozen=True)
class LevelPrediction:
    """Predicted miss count at one level, with its conflict component.

    ``exact`` marks a count proven bit-for-bit equal to the simulator's
    (the no-eviction distinct-line count, :mod:`repro.symbolic`), which
    is therefore an integer.  An estimated level's ``note`` says why the
    proof does not hold there: a downgrade reason, then its detail.
    """

    name: str
    misses: float
    conflict_misses: float = 0.0
    exact: bool = False
    note: str = ""

    def __post_init__(self) -> None:
        if self.misses < 0 or self.conflict_misses < 0:
            raise AnalysisError("predicted miss counts must be non-negative")
        if self.exact and self.misses != int(self.misses):
            raise AnalysisError(
                f"level {self.name!r}: an exact miss count must be an integer, "
                f"got {self.misses}"
            )


@dataclass(frozen=True)
class NestPrediction:
    """One nest's per-level prediction."""

    label: str | None
    iterations: int
    refs_per_iteration: int
    levels: tuple[LevelPrediction, ...]

    @property
    def total_refs(self) -> int:
        return self.iterations * self.refs_per_iteration


@dataclass(frozen=True)
class PredictedStats:
    """Program-level prediction, mirroring :class:`SimulationResult`.

    ``predictions`` holds the raw (fractional) per-level miss counts;
    :attr:`levels` rounds them into a :class:`LevelStats` chain whose
    accesses follow the miss stream (accesses at level *i+1* equal misses
    at level *i*, clamped), so :attr:`result` is a well-formed
    :class:`SimulationResult` that drops into every existing report,
    objective, and cycle model.  Rounding and clamping never change an
    exact level: its distinct-line count is an integer no larger than
    the level above's.

    Exactness is a *prefix* over levels: a level's access stream is the
    miss stream of the level above, so it can only be exact when that
    level is.  ``nests`` keeps each nest's estimated breakdown; exact
    levels replace only the program-level ``predictions``.
    """

    total_refs: int
    predictions: tuple[LevelPrediction, ...]
    nests: tuple[NestPrediction, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "predictions", tuple(self.predictions))
        object.__setattr__(self, "nests", tuple(self.nests))
        if self.total_refs < 0:
            raise AnalysisError("total_refs must be non-negative")
        if not self.predictions:
            raise AnalysisError("at least one level prediction is required")
        for above, below in zip(self.predictions, self.predictions[1:]):
            if below.exact and not above.exact:
                raise AnalysisError(
                    f"level {below.name!r} claims exactness below an inexact level"
                )

    @property
    def exact(self) -> bool:
        """True when every level's count is proven exact."""
        return all(p.exact for p in self.predictions)

    # -- SimulationResult mirror --------------------------------------------
    @cached_property
    def levels(self) -> tuple[LevelStats, ...]:
        out = []
        accesses = self.total_refs
        for p in self.predictions:
            misses = int(min(accesses, max(0, round(p.misses))))
            out.append(LevelStats(name=p.name, accesses=accesses, misses=misses))
            accesses = misses
        return tuple(out)

    @cached_property
    def result(self) -> SimulationResult:
        """The prediction as a drop-in :class:`SimulationResult`."""
        return SimulationResult(total_refs=self.total_refs, levels=self.levels)


# -- per-reference model -----------------------------------------------------

def _sweeps(low: LoweredNest) -> tuple[tuple[int, int, int, int] | None, ...]:
    """Each unique reference's layout- and cache-independent sweep terms.

    ``(sweep iterations, innermost varying stride, span bytes, revisits)``,
    or ``None`` for a scalar-like address.  One *sweep* is a full
    traversal of the loops the address depends on; ``revisits`` is the
    product of the invariant loops wrapped around it.  A loop's trip
    count is its value range over its step (for a triangular loop, the
    rectangular hull: an upper bound consistent with the span rule's
    interval arithmetic), at least one.  The span is the lowered span
    rule (:class:`repro.ir.lowering.LoweredNest`).
    """
    loops = low.nest.loops
    trips = [
        (hi - lo) // abs(lp.step) + 1
        for lp, (lo, hi) in zip(loops, low.ranges.tolist())
    ]
    spans = (low.hi - low.lo + low.element).tolist()
    out = []
    for column, span in zip(low.coeff.T.tolist(), spans):
        strides = [c * lp.step for c, lp in zip(column, loops)]
        varying = [i for i, s in enumerate(strides) if s != 0]
        if not varying:
            out.append(None)
            continue
        sweep_iters = 1
        for i in varying:
            sweep_iters *= trips[i]
        revisits = 1
        for i, s in enumerate(strides):
            if s == 0 and i < varying[-1]:
                revisits *= trips[i]
        out.append((sweep_iters, abs(strides[varying[-1]]), span, revisits))
    return tuple(out)


def _ref_sweep_misses(
    sweep: tuple[int, int, int, int] | None,
    cache: CacheConfig,
    resident: bool,
) -> float:
    """Self-reuse misses of one reference at one level (no conflicts).

    A sweep costs one miss per new line entered.  Invariant loops wrapped
    around the sweep repeat it; the repeats are free when the reference's
    span fits the cache, and cost full sweeps when it does not.  An array
    left ``resident`` by the previous nest makes the first sweep free too.
    """
    if sweep is None:
        # Scalar-like address: one cold line, or none if already cached.
        return 0.0 if resident else 1.0
    sweep_iters, inner_stride, span, revisits = sweep
    frac = min(1.0, inner_stride / cache.line_size)
    per_sweep = frac * sweep_iters
    if span <= cache.size:
        return 0.0 if resident else per_sweep
    # Does not fit: every enclosing invariant loop restarts the sweep
    # against a cold cache.
    return per_sweep * revisits


# -- nest / program / job entry points ---------------------------------------

def predict_nest(
    program: Program,
    layout: DataLayout,
    nest: LoopNest,
    hierarchy: HierarchyConfig,
    resident: tuple[frozenset[str], ...] | None = None,
) -> NestPrediction:
    """Predict one nest's misses at every level of the hierarchy.

    ``resident`` gives, per level, the arrays assumed cached on entry
    (:func:`predict_job` threads this across nests); by default every
    level starts cold, matching a ``SimJob`` of a program of that nest alone.
    """
    from repro.layout.diagram import CacheDiagram  # lazy: import-cycle guard

    if resident is None:
        resident = tuple(frozenset() for _ in hierarchy.levels)
    low = lower(program).nest(nest)
    sweeps = low.cached(_sweeps, lambda: _sweeps(low))
    iters = low.iterations
    levels = []
    for cache, cached_arrays in zip(hierarchy.levels, resident):
        thrash = thrashing_refs(program, layout, nest, cache)
        diagram = CacheDiagram(program, layout, nest, cache.size, cache.line_size)
        exploited = diagram.trailing_refs_exploited()
        base = 0.0
        conflict = 0.0
        for dot, sweep in zip(diagram.dots, sweeps):
            if dot.ref in thrash:
                # Severe conflict: the competing reference evicts the
                # line between consecutive touches, every iteration.
                conflict += float(iters)
            elif dot.ref in exploited:
                continue  # served by group reuse at this level
            else:
                base += _ref_sweep_misses(
                    sweep, cache, dot.ref.array in cached_arrays
                )
        levels.append(
            LevelPrediction(
                name=cache.name, misses=base + conflict, conflict_misses=conflict
            )
        )
    return NestPrediction(
        label=nest.label,
        iterations=iters,
        refs_per_iteration=nest.refs_per_iteration,
        levels=tuple(levels),
    )


def _update_residency(
    program: Program,
    nest: LoopNest,
    hierarchy: HierarchyConfig,
    resident: list[frozenset[str]],
) -> None:
    """What the next nest may assume cached after this one ran.

    A level retains the nest's arrays when the nest's whole footprint fit;
    a nest that streamed more data than the level holds flushes it (the
    fusion machinery's "no reuse between nests due to capacity
    constraints" assumption, applied per level).
    """
    from repro.analysis.footprint import nest_footprint_bytes

    footprint = nest_footprint_bytes(program, nest)
    touched = frozenset(nest.arrays_used())
    for i, cache in enumerate(hierarchy.levels):
        resident[i] = touched if footprint <= cache.size else frozenset()


def predict_job(job) -> PredictedStats:
    """Score one :class:`~repro.exec.jobs.SimJob` analytically.

    The analytic counterpart of ``job.run()``: same whole program,
    layout, and hierarchy, from cold caches as the simulator runs them.
    Kernels with custom trace hooks (IRR's runtime gathers) are
    estimated from their affine IR, which ignores the data-dependent
    indirection -- no level of theirs is exact, so rank them with care,
    or not at all.

    The exactness proof (:func:`repro.symbolic.classify_job`) runs
    first: every level in its exact prefix gets the proven distinct-line
    count.  The other levels sum the per-nest estimates, raised to the
    proven cold misses where the proof knows them, with nests processed
    in program order: arrays a nest leaves resident at a level (its
    footprint fit) satisfy the next nest's cold misses there -- the
    cross-nest temporal reuse that fusion profitability and the
    three-level experiments depend on.
    """
    program, layout, hierarchy = job.program, job.layout, job.hierarchy
    if not program.nests:
        raise AnalysisError(f"program {program.name!r} has no nests to predict")
    classification = classify_job(job)
    resident: list[frozenset[str]] = [frozenset() for _ in hierarchy.levels]
    totals = [0.0] * len(hierarchy.levels)
    conflicts = [0.0] * len(hierarchy.levels)
    nest_preds = []
    total_refs = 0
    for nest in program.nests:
        pred = predict_nest(
            program, layout, nest, hierarchy, resident=tuple(resident)
        )
        nest_preds.append(pred)
        total_refs += pred.total_refs
        for i, lv in enumerate(pred.levels):
            totals[i] += lv.misses
            conflicts[i] += lv.conflict_misses
        _update_residency(program, nest, hierarchy, resident)
    predictions = []
    for cache, cls, misses, conflict in zip(
        hierarchy.levels, classification, totals, conflicts
    ):
        if cls.exact:
            predictions.append(
                LevelPrediction(cache.name, float(cls.distinct_lines), exact=True)
            )
        else:
            # Every distinct line's first touch misses, so a known cold
            # count bounds the estimate from below.
            misses = max(misses, cls.cold_misses or 0)
            note = f"{cls.reason}: {cls.detail}" if cls.detail else cls.reason
            predictions.append(
                LevelPrediction(cache.name, misses, conflict, note=note)
            )
    return PredictedStats(
        total_refs=total_refs,
        predictions=tuple(predictions),
        nests=tuple(nest_preds),
    )
