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
from repro.errors import AnalysisError, IRError
from repro.ir.loops import Loop, LoopNest
from repro.ir.program import Program
from repro.ir.ranges import affine_interval, loop_var_ranges
from repro.ir.refs import ArrayRef
from repro.layout.layout import DataLayout
from repro.model.conflicts import thrashing_refs
from repro.symbolic import LevelClassification, classify_job, classify_program

__all__ = [
    "LevelPrediction",
    "NestPrediction",
    "PredictedStats",
    "predict_nest",
    "predict_program",
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

    def level(self, name: str) -> LevelStats:
        return self.result.level(name)

    def miss_rate(self, name: str) -> float:
        return self.result.miss_rate(name)

    @property
    def memory_refs(self) -> int:
        return self.result.memory_refs

    def cycles(self, hierarchy) -> float:
        return self.result.cycles(hierarchy)

    def summary(self) -> str:
        return "predicted " + self.result.summary()

    # -- model-specific detail ----------------------------------------------
    def conflict_misses(self, name: str) -> float:
        """The raw conflict component of one level's prediction."""
        for p in self.predictions:
            if p.name == name:
                return p.conflict_misses
        raise KeyError(f"no cache level named {name!r}")

    @property
    def is_conflict_free(self) -> bool:
        """True when no level predicts any steady-state conflict misses."""
        return all(p.conflict_misses == 0.0 for p in self.predictions)


# -- per-reference model -----------------------------------------------------

def _ref_span_bytes(
    program: Program,
    nest: LoopNest,
    ref: ArrayRef,
    ranges: dict[str, tuple[int, int]],
) -> int:
    """Bytes spanned by this one reference over the iteration space."""
    decl = program.decl(ref.array)
    lo, hi = affine_interval(ref.offset_expr(decl), ranges)
    return (hi - lo) + decl.element_size


def _trip_count(lp: Loop, ranges: dict[str, tuple[int, int]]) -> int:
    """A loop's trip count; triangular loops use their value-range width
    (the rectangular hull, an upper bound consistent with the interval
    arithmetic the span estimates already use)."""
    try:
        return max(1, lp.trip_count())
    except IRError:
        vmin, vmax = ranges[lp.var]
        return max(1, (vmax - vmin) // abs(lp.step) + 1)


def _ref_sweep_misses(
    program: Program,
    nest: LoopNest,
    ref: ArrayRef,
    cache: CacheConfig,
    resident: frozenset[str],
    ranges: dict[str, tuple[int, int]],
) -> float:
    """Self-reuse misses of one reference at one level (no conflicts).

    One *sweep* is a full traversal of the loops the address depends on;
    it costs one miss per new line entered.  Invariant loops wrapped
    around the sweep repeat it; the repeats are free when the reference's
    span fits the cache, and cost full sweeps when it does not.  An array
    left resident by the previous nest makes the first sweep free too.
    """
    decl = program.decl(ref.array)
    off = ref.offset_expr(decl)
    strides = [off.coeff(lp.var) * lp.step for lp in nest.loops]
    varying = [i for i, s in enumerate(strides) if s != 0]
    if not varying:
        # Scalar-like address: one cold line, or none if already cached.
        return 0.0 if ref.array in resident else 1.0

    sweep_iters = 1
    for i in varying:
        sweep_iters *= _trip_count(nest.loops[i], ranges)
    inner_stride = abs(strides[varying[-1]])
    frac = min(1.0, inner_stride / cache.line_size)
    per_sweep = frac * sweep_iters

    span = _ref_span_bytes(program, nest, ref, ranges)
    if span <= cache.size:
        return 0.0 if ref.array in resident else per_sweep
    # Does not fit: every enclosing invariant loop restarts the sweep
    # against a cold cache.
    revisits = 1
    for i, s in enumerate(strides):
        if s == 0 and i < varying[-1]:
            revisits *= _trip_count(nest.loops[i], ranges)
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
    (:func:`predict_program` threads this across nests); by default every
    level starts cold, matching :func:`repro.simulate.simulate_nest`.
    """
    from repro.layout.diagram import CacheDiagram  # lazy: import-cycle guard

    if resident is None:
        resident = tuple(frozenset() for _ in hierarchy.levels)
    iters = nest.iterations()
    ranges = loop_var_ranges(nest)
    levels = []
    for cache, cached_arrays in zip(hierarchy.levels, resident):
        thrash = thrashing_refs(program, layout, nest, cache)
        diagram = CacheDiagram(program, layout, nest, cache.size, cache.line_size)
        exploited = diagram.trailing_refs_exploited()
        base = 0.0
        conflict = 0.0
        for dot in diagram.dots:
            if dot.ref in thrash:
                # Severe conflict: the competing reference evicts the
                # line between consecutive touches, every iteration.
                conflict += float(iters)
            elif dot.ref in exploited:
                continue  # served by group reuse at this level
            else:
                base += _ref_sweep_misses(
                    program, nest, dot.ref, cache, cached_arrays, ranges
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


def predict_program(
    program: Program,
    layout: DataLayout,
    hierarchy: HierarchyConfig,
    nests: tuple[LoopNest, ...] | None = None,
) -> PredictedStats:
    """Predict per-level misses for a whole program (or a nest subset).

    The exactness proof (:func:`repro.symbolic.classify_program`) runs
    first: every level in its exact prefix gets the proven distinct-line
    count.  The other levels sum the per-nest estimates, raised to the
    proven cold misses where the proof knows them, with nests
    processed in program order: arrays a nest leaves resident at a level
    (its footprint fit) satisfy the next nest's cold misses there -- the
    cross-nest temporal reuse that fusion profitability and the
    three-level experiments depend on.
    """
    selected = _selected_nests(program, nests)
    return _predict(
        program,
        layout,
        hierarchy,
        selected,
        classify_program(program, layout, hierarchy, selected),
    )


def _selected_nests(
    program: Program, nests: tuple[LoopNest, ...] | None
) -> tuple[LoopNest, ...]:
    selected = tuple(nests) if nests is not None else tuple(program.nests)
    if not selected:
        raise AnalysisError(f"program {program.name!r} has no nests to predict")
    return selected


def _predict(
    program: Program,
    layout: DataLayout,
    hierarchy: HierarchyConfig,
    selected: tuple[LoopNest, ...],
    classification: tuple[LevelClassification, ...],
) -> PredictedStats:
    resident: list[frozenset[str]] = [frozenset() for _ in hierarchy.levels]
    totals = [0.0] * len(hierarchy.levels)
    conflicts = [0.0] * len(hierarchy.levels)
    nest_preds = []
    total_refs = 0
    for nest in selected:
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


def predict_job(job) -> PredictedStats:
    """Score one :class:`~repro.exec.jobs.SimJob` analytically.

    The analytic counterpart of ``job.run()``: same program, layout, and
    hierarchy, with ``nest_index`` jobs predicted on that nest alone
    (cold caches, as :func:`simulate_nest` measures).  Kernels with
    custom trace hooks (IRR's runtime gathers) are estimated from their
    affine IR, which ignores the data-dependent indirection -- no level
    of theirs is exact, so rank them with care, or not at all.
    """
    nests = None
    if job.nest_index is not None:
        nests = (job.program.nests[job.nest_index],)
    return _predict(
        job.program,
        job.layout,
        job.hierarchy,
        _selected_nests(job.program, nests),
        classify_job(job),
    )
