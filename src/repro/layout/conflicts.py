"""Severe (ping-pong) conflict detection between array references.

Two references conflict severely on a direct-mapped cache when they map
within one cache line of each other, so they evict each other on every
iteration (paper Section 3).  For uniformly generated reference pairs the
cache distance is iteration-invariant, so the test is exact modular
arithmetic; for pairs whose address difference varies across iterations we
fall back to a conservative interval test (does any iteration bring them
within a line, modulo the cache size?).

Both tests read the program's lowered form (:func:`repro.ir.lowering.lower`):
a pair's delta is the difference of two references' constants and
coefficient columns plus their base difference, its interval the span
rule over the nest's loop ranges, and it is constant exactly when the
columns are equal.

Only the *constant-delta* conflicts are fixable by inter-variable padding;
the report keeps the two kinds separate so PAD does not chase conflicts it
cannot eliminate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ir.loops import LoopNest
from repro.ir.lowering import LoweredNest, lower, span_rule
from repro.ir.program import Program
from repro.ir.refs import ArrayRef
from repro.layout.layout import DataLayout
from repro.util.mathutil import circular_distance

__all__ = [
    "ConflictReport",
    "delta_interval",
    "interval_conflicts_with_cache",
    "nest_severe_conflicts",
    "program_severe_conflicts",
]


@dataclass(frozen=True)
class ConflictPair:
    """One severely conflicting reference pair inside one nest."""

    nest_label: str
    ref_a: ArrayRef
    ref_b: ArrayRef
    fixable: bool  # constant address delta => padding can separate them


@dataclass(frozen=True)
class ConflictReport:
    """All severe conflicts found for a (program, layout, cache) triple."""

    cache_size: int
    line_size: int
    pairs: tuple[ConflictPair, ...]

    @property
    def count(self) -> int:
        return len(self.pairs)

    @property
    def fixable(self) -> tuple[ConflictPair, ...]:
        return tuple(p for p in self.pairs if p.fixable)

    @property
    def is_clean(self) -> bool:
        return not self.pairs

    def __bool__(self) -> bool:
        return bool(self.pairs)


def _delta_bounds(low: LoweredNest, i, j) -> tuple[np.ndarray, np.ndarray]:
    """The span rule of ``offset(i) - offset(j)``: add the bases' difference
    for addresses."""
    return span_rule(
        low.const[i] - low.const[j], low.coeff[:, i] - low.coeff[:, j], low.ranges
    )


def delta_interval(
    program: Program,
    layout: DataLayout,
    nest: LoopNest,
    ref_a: ArrayRef,
    ref_b: ArrayRef,
) -> tuple[int, int]:
    """(min, max) of ``address(ref_a) - address(ref_b)`` over the nest."""
    low = lower(program).nest(nest)
    lo, hi = _delta_bounds(low, [low.slot(ref_a)], [low.slot(ref_b)])
    base = layout.base(ref_a.array) - layout.base(ref_b.array)
    return int(lo[0]) + base, int(hi[0]) + base


def interval_conflicts_with_cache(
    dmin: int, dmax: int, cache_size: int, line_size: int
) -> bool:
    """Does some delta in [dmin, dmax] land within a line of a cache-size multiple?

    Exact for constant deltas (dmin == dmax); conservative otherwise
    (assumes the delta can take any value in the interval).
    """
    if dmin == dmax:
        return circular_distance(dmin % cache_size, 0, cache_size) < line_size
    # A conflict exists iff [dmin-(L-1), dmax+(L-1)] contains k*C.
    lo = dmin - (line_size - 1)
    hi = dmax + (line_size - 1)
    return hi // cache_size >= -((-lo) // cache_size)


def nest_severe_conflicts(
    program: Program,
    layout: DataLayout,
    nest: LoopNest,
    cache_size: int,
    line_size: int,
) -> list[ConflictPair]:
    """Severely conflicting pairs of references to *different* arrays.

    Intra-array conflicts are the business of intra-variable padding
    (:mod:`repro.transforms.intrapad`), not inter-variable padding, so
    same-array pairs are excluded here -- matching PAD's scope.  A pair is
    ``fixable`` when its address delta is constant as an expression, the
    pairs :func:`repro.layout.diagram.severe_conflict` tests; a delta that
    merely takes one value (a one-trip loop) is reported but not fixable.
    """
    lowered = lower(program)
    low = lowered.nest(nest)
    i, j = np.triu_indices(len(low.unique), 1)
    keep = low.array[i] != low.array[j]
    i, j = i[keep], j[keep]
    lo, hi = _delta_bounds(low, i, j)
    bases = lowered.bases(layout)
    base = bases[low.array[i]] - bases[low.array[j]]
    fixable = (low.coeff[:, i] == low.coeff[:, j]).all(axis=0)
    pairs: list[ConflictPair] = []
    for a, b, dmin, dmax, fix in zip(
        i.tolist(), j.tolist(), (lo + base).tolist(), (hi + base).tolist(),
        fixable.tolist(),
    ):
        if interval_conflicts_with_cache(dmin, dmax, cache_size, line_size):
            pairs.append(
                ConflictPair(
                    nest_label=nest.label,
                    ref_a=low.unique[a],
                    ref_b=low.unique[b],
                    fixable=fix,
                )
            )
    return pairs


def program_severe_conflicts(
    program: Program,
    layout: DataLayout,
    cache_size: int,
    line_size: int,
) -> ConflictReport:
    """Severe conflicts across all nests of the program."""
    pairs: list[ConflictPair] = []
    for nest in program.nests:
        pairs.extend(
            nest_severe_conflicts(program, layout, nest, cache_size, line_size)
        )
    return ConflictReport(cache_size=cache_size, line_size=line_size, pairs=tuple(pairs))
