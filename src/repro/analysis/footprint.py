"""Working-set (footprint) estimates.

Used by fusion (capacity check: "we assume no reuse between nests due to
capacity constraints"), by GROUPPAD (how many columns fit in the cache),
by tiling profitability, by the predictor's residency rule and by the
exactness proof's capacity pre-filter.

Every estimate reads the program's lowered form
(:func:`repro.ir.lowering.lower`): a reference's span is its offset
interval over the nest's loop ranges (the lowered ``lo``/``hi``, one
span rule for every caller), and its line-count lower bound composes its
coefficient column's per-loop strides.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import IRError
from repro.ir.loops import LoopNest
from repro.ir.lowering import LoweredNest, lower
from repro.ir.program import Program

__all__ = [
    "nest_footprint_bytes",
    "ref_span_bytes",
    "ref_lines_lower_bound",
    "ref_line_bounds",
]


def ref_span_bytes(program: Program, nest: LoopNest, array: str) -> int:
    """Bytes of ``array`` spanned by the nest's references to it.

    Interval width of the reference offsets over the iteration space plus
    one element -- an upper bound on the data touched in that array.  The
    intervals are the lowered form's span rule
    (:class:`repro.ir.lowering.LoweredNest` ``lo``/``hi``).
    """
    low = lower(program).nest(nest)
    mine = [u for u, r in enumerate(low.unique) if r.array == array]
    if not mine:
        return 0
    return int(low.hi[mine].max() - low.lo[mine].min() + low.element[mine[0]])


def nest_footprint_bytes(program: Program, nest: LoopNest) -> int:
    """Total bytes touched by a nest (sum of per-array spans), computed
    once per lowered nest."""
    return lower(program).nest(nest).cached("footprint", lambda: sum(
        ref_span_bytes(program, nest, a) for a in nest.arrays_used()
    ))


def ref_lines_lower_bound(
    nest: LoopNest, column: Sequence[int], line_size: int
) -> int:
    """A provable lower bound on the distinct cache lines one reference
    touches over its iteration space.

    ``column`` is the reference's lowered coefficient column: its byte
    offset moves by ``column[l]`` per unit of loop ``l``'s variable.
    Used by :mod:`repro.symbolic` as a capacity pre-filter: when the bound
    already exceeds a level's ``num_lines``, some set must receive more
    lines than it has ways (pigeonhole), so the no-eviction exactness
    condition cannot hold and the full footprint enumeration is skipped.

    The bound composes per-loop arithmetic progressions smallest stride
    first, tracking two invariants of the accumulated offset set: its
    byte ``span`` and an upper bound ``gap`` on the largest distance
    between consecutive offsets.  A stride larger than the current span
    shifts the set into byte-disjoint copies (each holding the current
    line count, adjacent copies sharing at most one boundary line); and
    whenever ``gap <= line_size`` no aligned line inside the window can
    be skipped, so ``span // line_size - 1`` lines are certainly touched.
    Loops with symbolic (triangular) bounds contribute nothing -- they
    can only grow the footprint, so dropping them keeps the bound a true
    lower bound.
    """
    pairs = []  # (trip, |stride|) of rectangular loops the address varies in
    for lp, coeff in zip(nest.loops, column):
        if coeff == 0 or not lp.is_rectangular:
            continue
        try:
            trip = lp.trip_count()
        except IRError:  # pragma: no cover - is_rectangular guards this
            continue
        if trip > 1:
            pairs.append((trip, abs(coeff * lp.step)))
    pairs.sort(key=lambda p: p[1])
    lines = 1
    span = 0
    gap = 0
    for trip, stride in pairs:
        if stride > span:
            # Disjoint copies of the inner set: each holds >= `lines`
            # lines, adjacent copies can share at most one line.
            lines = trip * lines - (trip - 1)
            gap = max(gap, stride - span)
        else:
            # Interleaved copies: consecutive-offset gaps stay within
            # max(previous gap, stride).
            gap = max(gap, stride)
        span += stride * (trip - 1)
        if gap <= line_size:
            lines = max(lines, span // line_size - 1)
    return max(1, lines)


def ref_line_bounds(low: LoweredNest, line_size: int) -> tuple[int, ...]:
    """:func:`ref_lines_lower_bound` of each unique reference of a lowered
    nest, computed once per line size."""
    return low.cached(("line_bounds", line_size), lambda: tuple(
        ref_lines_lower_bound(low.nest, column, line_size)
        for column in low.coeff.T.tolist()
    ))

