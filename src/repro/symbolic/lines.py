"""Closed-form footprint enumeration: distinct byte offsets and lines.

The symbolic tier's exactness argument rests on the *no-eviction* regime:
at a level where every set receives no more distinct lines than it has
ways, LRU never evicts, so the level's miss count equals its distinct
line count regardless of access order.  This module computes those
distinct sets -- the absolute byte offsets every reference touches, and
the cache lines they map to -- **without materializing a trace**.

Offsets of one affine reference over a rectangular (sub-)space form a
multi-dimensional arithmetic progression; the distinct values are built
by staged ``np.unique`` over per-loop progressions, smallest stride
first, so intermediate arrays collapse as early as possible.  Loops with
outer-dependent (triangular/min/max) bounds are walked in Python via
:meth:`Loop.concrete_trip` -- the same value sets the trace generator's
vectorized :meth:`Loop.concrete_trips` produces row by row, so
enumeration and simulation cannot disagree on which indices execute.

Everything is budgeted: enumeration returns ``None`` (caller downgrades
to the approximate tier) rather than burning unbounded time or memory.
"""

from __future__ import annotations

import numpy as np

from repro.cache.config import CacheConfig
from repro.ir.affine import AffineExpr
from repro.ir.loops import LoopNest
from repro.ir.program import Program
from repro.layout.layout import DataLayout

__all__ = [
    "DEFAULT_MAX_OFFSETS",
    "DEFAULT_MAX_STEPS",
    "unique_ref_exprs",
    "ref_distinct_offsets",
    "distinct_offsets",
    "distinct_lines",
    "max_set_occupancy",
]

#: Per-reference cap on distinct byte offsets before giving up.  64Ki
#: offsets cover every no-eviction-classifiable job against realistic
#: caches (a 512 KB L2 holds 8Ki lines) with room to spare.
DEFAULT_MAX_OFFSETS = 1 << 16

#: Cap on Python-level loop iterations spent descending triangular
#: prefixes before giving up.
DEFAULT_MAX_STEPS = 1 << 12

#: Materialization guard: a staged-unique step may expand to at most this
#: many intermediate entries (4x the offset cap tolerates moderate
#: overlap between shifted copies without unbounded memory).
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


def _rect_offsets(
    nest: LoopNest,
    level: int,
    env: dict[str, int],
    expr: AffineExpr,
    max_offsets: int,
) -> np.ndarray | None:
    """Distinct offsets of ``expr`` over the rectangular sub-nest at
    ``level`` (outer indices fixed by ``env``), or ``None`` on budget."""
    start_env: dict[str, int] = dict(env)
    progressions: list[tuple[int, int]] = []  # (signed byte stride, trip)
    for lp in nest.loops[level:]:
        first, count = lp.concrete_trip(env)
        if count == 0:
            return np.empty(0, dtype=np.int64)
        start_env[lp.var] = first
        stride = expr.coeff(lp.var) * lp.step
        if stride != 0 and count > 1:
            progressions.append((stride, count))
    arr = np.array([int(expr.evaluate(start_env))], dtype=np.int64)
    progressions.sort(key=lambda p: abs(p[0]))
    entry_cap = _ENTRY_FACTOR * max_offsets
    for stride, count in progressions:
        if arr.size * count > entry_cap:
            return None
        steps = stride * np.arange(count, dtype=np.int64)
        arr = np.unique(arr[:, None] + steps[None, :])
        if arr.size > max_offsets:
            return None
    return arr


def ref_distinct_offsets(
    nest: LoopNest,
    expr: AffineExpr,
    max_offsets: int = DEFAULT_MAX_OFFSETS,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> np.ndarray | None:
    """All distinct byte offsets one absolute-address expression touches.

    Returns a sorted ``int64`` array, or ``None`` when the enumeration
    budget (``max_offsets`` distinct values, ``max_steps`` Python-level
    iterations over non-rectangular prefixes) is exceeded.
    """
    pieces: list[np.ndarray] = []
    steps = 0
    entries = 0
    entry_cap = _ENTRY_FACTOR * max_offsets

    def walk(level: int, env: dict[str, int]) -> bool:
        nonlocal steps, entries
        if nest.concrete_from(level):
            part = _rect_offsets(nest, level, env, expr, max_offsets)
            if part is None:
                return False
            entries += part.size
            if entries > entry_cap:
                return False
            if part.size:
                pieces.append(part)
            return True
        lp = nest.loops[level]
        first, count = lp.concrete_trip(env)
        for j in range(count):
            steps += 1
            if steps > max_steps:
                return False
            child = dict(env)
            child[lp.var] = first + lp.step * j
            if not walk(level + 1, child):
                return False
        return True

    if not walk(0, {}):
        return None
    if not pieces:
        return np.empty(0, dtype=np.int64)
    out = np.unique(np.concatenate(pieces))
    if out.size > max_offsets:
        return None
    return out


def distinct_offsets(
    program: Program,
    layout: DataLayout,
    nests: tuple[LoopNest, ...] | None = None,
    max_offsets: int = DEFAULT_MAX_OFFSETS,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> np.ndarray | None:
    """Distinct absolute byte offsets a whole program (or nest subset)
    touches, or ``None`` when any reference exceeds the budget.

    This is the program's exact byte footprint; per-level line sets
    follow by floor division (:func:`distinct_lines`), which commutes
    with the union taken here.
    """
    pieces: list[np.ndarray] = []
    for nest in nests if nests is not None else program.nests:
        for expr in unique_ref_exprs(program, layout, nest):
            offs = ref_distinct_offsets(nest, expr, max_offsets, max_steps)
            if offs is None:
                return None
            if offs.size:
                pieces.append(offs)
    if not pieces:
        return np.empty(0, dtype=np.int64)
    return np.unique(np.concatenate(pieces))


def distinct_lines(offsets: np.ndarray, line_size: int) -> np.ndarray:
    """The distinct cache lines a set of byte offsets occupies.

    Floor division maps each offset to its line index; ``np.unique``
    collapses shared lines.  Because ``floor_div`` commutes with set
    union, feeding the union of all references' offsets here yields
    exactly the lines the merged access stream touches.
    """
    if offsets.size == 0:
        return offsets
    return np.unique(offsets // line_size)


def max_set_occupancy(lines: np.ndarray, cache: CacheConfig) -> int:
    """The largest number of distinct lines mapping to any one set.

    The no-eviction test: when this is at most ``cache.associativity``,
    LRU never evicts and the level's misses equal ``lines.size``.
    """
    if lines.size == 0:
        return 0
    return int(np.bincount(lines % cache.num_sets).max())
