"""Closed-form footprint enumeration: distinct byte offsets and lines.

The exactness proof rests on the *no-eviction* regime: at a level where
every set receives no more distinct lines than it has ways, LRU never
evicts, so the level's miss count equals its distinct line count
regardless of access order.  This module computes those distinct sets --
the absolute byte offsets every reference touches, and the cache lines
they map to -- **without materializing a trace**.

A nest is enumerated as its rows (:meth:`LoopNest.rows`), the same
enumeration the trace generator runs, so the two cannot disagree on
which indices execute.  Within one row the remaining loops form a
rectangular space, over which a reference's offsets are the row's base
offset plus a multi-dimensional arithmetic progression that depends only
on the row's inner trip counts.  Rows are therefore grouped by trip
counts: each group builds its progression set once (a staged union of
per-loop progressions, smallest stride first, so intermediate arrays
collapse early) and adds it to each of the group's distinct row bases.

Everything is budgeted: enumeration returns ``None`` (the caller
downgrades the level) rather than burning unbounded time or memory.
"""

from __future__ import annotations

import numpy as np

from repro.cache.config import CacheConfig
from repro.ir.affine import AffineExpr
from repro.ir.loops import LoopNest
from repro.ir.program import Program
from repro.layout.layout import DataLayout

__all__ = [
    "MAX_OFFSETS",
    "MAX_ROWS",
    "unique_ref_exprs",
    "ref_distinct_offsets",
    "distinct_offsets",
    "distinct_lines",
    "max_set_occupancy",
]

#: Per-reference cap on distinct byte offsets before giving up.  64Ki
#: offsets cover every no-eviction-classifiable job against realistic
#: caches (a 512 KB L2 holds 8Ki lines) with room to spare.
MAX_OFFSETS = 1 << 16

#: Per-nest cap on rows (:meth:`LoopNest.rows`) before giving up.
MAX_ROWS = 1 << 12

#: Materialization guard: a reference's row unions and staged-unique
#: steps may expand to at most this many times ``MAX_OFFSETS`` entries
#: (tolerates moderate overlap between shifted copies without unbounded
#: memory).
_ENTRY_FACTOR = 4


def unique_ref_exprs(
    program: Program, layout: DataLayout, nest: LoopNest
) -> list[AffineExpr]:
    """Deduplicated absolute-address expressions of a nest's references.

    Two references with identical array, subscript, and base touch
    identical offsets; enumerating one of them is enough.  Expressions
    are absolute (layout base included) so arrays that share cache lines
    across a boundary are handled by construction.
    """
    bases = layout.bases()
    seen: set[AffineExpr] = set()
    out: list[AffineExpr] = []
    for ref in nest.refs:
        decl = program.decl(ref.array)
        expr = ref.offset_expr(decl) + bases[ref.array]
        if expr not in seen:
            seen.add(expr)
            out.append(expr)
    return out


def is_short(nests: tuple[LoopNest, ...]) -> bool:
    """True when the nests issue at most :data:`MAX_OFFSETS` references.

    No reference of such nests can exceed the offset budget, and
    enumerating their whole footprint costs little.
    """
    total = sum(nest.iterations() * nest.refs_per_iteration for nest in nests)
    return total <= MAX_OFFSETS


class _OverBudget(Exception):
    """Enumeration exceeded :data:`MAX_OFFSETS` or :data:`MAX_ROWS`."""


def _unique(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values.  Enumeration mostly yields sorted runs, so
    the sort is skipped when the values are already in order; either way
    this is several times faster than ``np.unique`` on ``int64``."""
    values = values.ravel()
    keep = np.empty(values.size, dtype=bool)
    keep[:1] = True
    np.greater_equal(values[1:], values[:-1], out=keep[1:])
    if not keep.all():
        values = np.sort(values)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


class _RowGroups:
    """A nest's live rows grouped by their inner trip counts.

    ``trips[g]`` holds group ``g``'s trip count of every inner loop and
    ``members[g]`` the indices of its rows; rows with an empty inner loop
    run nothing and belong to no group.
    """

    def __init__(self, nest: LoopNest) -> None:
        rows = nest.rows()
        if rows.counts[0].size > MAX_ROWS:
            raise _OverBudget
        counts = np.stack(rows.counts, axis=1)
        live = np.flatnonzero((counts > 0).all(axis=1))
        self.nest = nest
        self.rows = rows
        if live.size < 2:  # a rectangular nest is a single row
            self.trips, self.members = counts[live], [live]
            return
        trips, inverse = np.unique(counts[live], axis=0, return_inverse=True)
        inverse = inverse.ravel()
        order = np.argsort(inverse, kind="stable")
        splits = np.cumsum(np.bincount(inverse, minlength=len(trips)))
        self.trips = trips
        self.members = np.split(live[order], splits[:-1])

    def pieces(self, expr: AffineExpr):
        """Yield ``expr``'s offsets group by group, each sorted and
        distinct: the group's distinct row bases plus its progression."""
        rows = self.rows
        env = dict(zip(self.nest.loop_vars, rows.values + rows.firsts))
        bases = np.broadcast_to(expr.evaluate(env), rows.counts[0].shape)
        inner = self.nest.loops[rows.level:]
        strides = [expr.coeff(lp.var) * lp.step for lp in inner]
        entries = 0
        for trips, members in zip(self.trips, self.members):
            steps = _progression(strides, trips)
            starts = _unique(bases[members])
            entries += starts.size * steps.size
            if entries > _ENTRY_FACTOR * MAX_OFFSETS:
                raise _OverBudget
            piece = starts[:, None] + steps[None, :]
            yield piece.ravel() if starts.size == 1 else _unique(piece)


def _progression(strides: list[int], trips: np.ndarray) -> np.ndarray:
    """Distinct values of ``sum(strides[k] * j_k)`` over ``j_k < trips[k]``."""
    pairs = sorted(
        ((s, int(t)) for s, t in zip(strides, trips) if s != 0 and t > 1),
        key=lambda p: abs(p[0]),
    )
    arr = np.zeros(1, dtype=np.int64)
    for stride, trip in pairs:
        if arr.size * trip > _ENTRY_FACTOR * MAX_OFFSETS:
            raise _OverBudget
        # Ascending copies of the (sorted) set: already in order when
        # they do not overlap.
        steps = abs(stride) * np.arange(trip, dtype=np.int64)
        if stride < 0:
            steps -= steps[-1]
        arr = steps if arr.size == 1 else _unique(steps[:, None] + arr[None, :])
        if arr.size > MAX_OFFSETS:
            raise _OverBudget
    return arr


def _union(pieces: list[np.ndarray]) -> np.ndarray:
    """Sorted distinct values of sorted, distinct pieces; pieces that do
    not overlap, once ordered by their first value, need no sort."""
    pieces = sorted((p for p in pieces if p.size), key=lambda p: p[0])
    if len(pieces) < 2:
        return pieces[0] if pieces else np.empty(0, dtype=np.int64)
    return _unique(np.concatenate(pieces))


def _ref_union(pieces: list[np.ndarray]) -> np.ndarray:
    out = _union(pieces)
    if out.size > MAX_OFFSETS:
        raise _OverBudget
    return out


def ref_distinct_offsets(nest: LoopNest, expr: AffineExpr) -> np.ndarray | None:
    """All distinct byte offsets one absolute-address expression touches.

    Returns a sorted ``int64`` array, or ``None`` when the enumeration
    budget (:data:`MAX_OFFSETS` distinct values, :data:`MAX_ROWS` rows)
    is exceeded.
    """
    try:
        return _ref_union(list(_RowGroups(nest).pieces(expr)))
    except _OverBudget:
        return None


def distinct_offsets(
    program: Program,
    layout: DataLayout,
    nests: tuple[LoopNest, ...] | None = None,
    stop: CacheConfig | None = None,
) -> np.ndarray | None:
    """Distinct absolute byte offsets a whole program (or nest subset)
    touches, or ``None`` when any reference exceeds the budget.

    This is the program's exact byte footprint; per-level line sets
    follow by floor division (:func:`distinct_lines`), which commutes
    with the union taken here.  With a ``stop`` level, enumeration ends
    as soon as the offsets seen so far span more of its lines than it
    holds, and returns that partial set: by pigeonhole some set of
    ``stop`` then receives more lines than it has ways, whatever the
    rest of the footprint is.
    """
    pieces: list[np.ndarray] = []
    lines = np.empty(0, dtype=np.int64)
    try:
        for nest in nests if nests is not None else program.nests:
            groups = _RowGroups(nest)
            for expr in unique_ref_exprs(program, layout, nest):
                ref_pieces = []
                for piece in groups.pieces(expr):
                    ref_pieces.append(piece)
                    if stop is None:
                        continue
                    lines = _unique(np.concatenate((lines, piece // stop.line_size)))
                    if lines.size > stop.num_lines:
                        return _union(pieces + ref_pieces)
                pieces.append(_ref_union(ref_pieces))
    except _OverBudget:
        return None
    return _union(pieces)


def distinct_lines(offsets: np.ndarray, line_size: int) -> np.ndarray:
    """The distinct cache lines a set of byte offsets occupies.

    Floor division maps each offset to its line index, and shared lines
    collapse to one.  Because ``floor_div`` commutes with set
    union, feeding the union of all references' offsets here yields
    exactly the lines the merged access stream touches.
    """
    if offsets.size == 0:
        return offsets
    return _unique(offsets // line_size)


def max_set_occupancy(lines: np.ndarray, cache: CacheConfig) -> int:
    """The largest number of distinct lines mapping to any one set.

    The no-eviction test: when this is at most ``cache.associativity``,
    LRU never evicts and the level's misses equal ``lines.size``.
    """
    if lines.size == 0:
        return 0
    return int(np.bincount(lines % cache.num_sets).max())
