"""Loops, statements, and perfect loop nests.

A :class:`LoopNest` is a perfect nest -- loops from outermost to innermost
wrapping a straight-line body of :class:`Statement` objects.  That covers
every program in the paper (Figures 1, 2, 6, 8); imperfect constructs such
as LINPACKD's pivot search are modeled as adjacent nests (see
``repro.kernels``).  Loop bounds are affine in *enclosing* loop variables,
which is what triangular nests (Gaussian elimination) and tiled nests
(``min`` bounds are pre-clipped by the tiling transform) need.

Such a nest is enumerated as *rows* (:meth:`LoopNest.rows`): every
combination of values of the loops whose bounds others depend on, each
with the trip counts of the remaining loops -- all computed with NumPy
over whole arrays of rows, never one loop value at a time in Python.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

from repro.errors import IRError
from repro.ir.affine import AffineExpr
from repro.ir.refs import ArrayRef

__all__ = ["Loop", "Statement", "LoopNest", "Rows", "ragged_range"]


def ragged_range(
    first: np.ndarray, count: np.ndarray, step: int
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated progressions ``first[m] + step*j`` for ``j < count[m]``.

    Returns ``(parent, values)``: for every produced value, the index
    ``m`` of the progression it belongs to, and the value itself -- one
    ragged expansion with ``np.repeat``/``cumsum``/``arange``.
    """
    parent = np.repeat(np.arange(count.size), count)
    starts = np.cumsum(count) - count
    values = np.repeat(first - step * starts, count)
    values += step * np.arange(parent.size, dtype=np.int64)
    return parent, values


def _bound(exprs, env: Mapping[str, np.ndarray], size: int, pick) -> np.ndarray:
    """``pick``-reduction of affine bounds evaluated over ``size`` rows."""
    out = exprs[0].evaluate(env)
    for expr in exprs[1:]:
        out = pick(out, expr.evaluate(env))
    if isinstance(out, np.ndarray):
        return out
    return np.full(size, out, dtype=np.int64)


@dataclass(frozen=True)
class Loop:
    """A DO loop: ``do var = lower, upper, step`` (inclusive bounds).

    ``extra_uppers`` holds additional upper bounds (effective upper is
    ``min(upper, *extra_uppers)``) -- tiling introduces these
    (``do I = II, min(II+H-1, N)``, Figure 8).  ``extra_lowers`` is the
    symmetric ``max(lower, *extra_lowers)`` form that skewed time-step
    tiling needs (Song & Li [25], Section 5's exception).  They are the
    only non-affine constructs the IR needs.
    """

    var: str
    lower: AffineExpr
    upper: AffineExpr
    step: int = 1
    extra_uppers: tuple[AffineExpr, ...] = ()
    extra_lowers: tuple[AffineExpr, ...] = ()

    def __post_init__(self) -> None:
        if not self.var:
            raise IRError("loop variable must be named")
        object.__setattr__(self, "lower", AffineExpr.wrap(self.lower))
        object.__setattr__(self, "upper", AffineExpr.wrap(self.upper))
        object.__setattr__(
            self, "extra_uppers", tuple(AffineExpr.wrap(e) for e in self.extra_uppers)
        )
        object.__setattr__(
            self, "extra_lowers", tuple(AffineExpr.wrap(e) for e in self.extra_lowers)
        )
        if self.step == 0:
            raise IRError(f"loop {self.var}: step must be non-zero")
        for bound in self.all_bounds:
            if bound.depends_on(self.var):
                raise IRError(
                    f"loop {self.var}: bounds may not reference the loop variable"
                )
        if (self.extra_uppers or self.extra_lowers) and self.step < 0:
            raise IRError(
                f"loop {self.var}: min/max-style bounds require a positive step"
            )

    @property
    def all_bounds(self) -> tuple[AffineExpr, ...]:
        return (self.lower, self.upper) + self.extra_uppers + self.extra_lowers

    @property
    def uppers(self) -> tuple[AffineExpr, ...]:
        return (self.upper,) + self.extra_uppers

    @property
    def lowers(self) -> tuple[AffineExpr, ...]:
        return (self.lower,) + self.extra_lowers

    @property
    def is_rectangular(self) -> bool:
        """True when every bound is a compile-time constant."""
        return all(b.is_constant for b in self.all_bounds)

    def effective_upper(self, env) -> int:
        """Evaluate ``min(upper, *extra_uppers)`` at concrete outer indices."""
        return min(int(u.evaluate(env)) for u in self.uppers)

    def effective_lower(self, env) -> int:
        """Evaluate ``max(lower, *extra_lowers)`` at concrete outer indices."""
        return max(int(l.evaluate(env)) for l in self.lowers)

    def concrete_trips(
        self, env: Mapping[str, np.ndarray], size: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(first value, trip count)`` over ``size`` rows of outer indices.

        ``env`` maps each outer loop variable to an int64 array of its
        value in every row; returns int64 ``(first, count)`` arrays.  In
        every row the loop's values are the arithmetic progression
        ``first + step*j`` for ``j in range(count)``.
        """
        lo = _bound(self.lowers, env, size, np.maximum)
        hi = _bound(self.uppers, env, size, np.minimum)
        span = hi - lo
        runs = span >= 0 if self.step > 0 else span <= 0
        return lo, np.where(runs, span // self.step + 1, 0)

    def trip_count(self) -> int:
        """Iteration count for constant bounds (raises otherwise)."""
        if not self.is_rectangular:
            raise IRError(f"loop {self.var} has symbolic bounds")
        lo = max(l.constant for l in self.lowers)
        hi = min(u.constant for u in self.uppers)
        if self.step > 0:
            return max(0, (hi - lo) // self.step + 1) if hi >= lo else 0
        return max(0, (lo - hi) // (-self.step) + 1) if lo >= hi else 0

    def __repr__(self) -> str:
        s = f", {self.step}" if self.step != 1 else ""
        return f"do {self.var} = {self.lower!r}, {self.upper!r}{s}"


@dataclass(frozen=True)
class Statement:
    """One assignment: ordered reads followed by an optional write.

    ``refs`` lists *all* memory operands in the order the generated code
    touches them (reads in textual order, then the store); that order is
    exactly the order addresses enter the simulated trace.  ``flops``
    counts floating-point operations for the MFLOPS model; ``label`` is
    for diagnostics.
    """

    refs: tuple[ArrayRef, ...]
    flops: int = 0
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "refs", tuple(self.refs))
        if not self.refs:
            raise IRError("statement must reference at least one array")
        for r in self.refs:
            if not isinstance(r, ArrayRef):
                raise IRError(f"statement operand {r!r} is not an ArrayRef")
        if self.flops < 0:
            raise IRError("flops must be non-negative")
        writes = [r for r in self.refs if r.is_write]
        if len(writes) > 1:
            raise IRError("statement may have at most one store")

    def rename(self, mapping) -> "Statement":
        return Statement(
            tuple(r.rename(mapping) for r in self.refs), self.flops, self.label
        )


class Rows(NamedTuple):
    """A nest's iteration space as rows (see :meth:`LoopNest.rows`).

    ``level`` is the first loop level ``p`` at which
    :meth:`LoopNest.concrete_from` holds.  ``values[l]`` holds the value
    of outer loop ``l < p`` in every row, in execution order; ``firsts[k]``
    and ``counts[k]`` hold the first value and trip count of inner loop
    ``p + k`` in every row.
    """

    level: int
    values: tuple[np.ndarray, ...]
    firsts: tuple[np.ndarray, ...]
    counts: tuple[np.ndarray, ...]

    @property
    def iterations(self) -> np.ndarray:
        """Iterations of the inner loops in every row."""
        return np.prod(np.stack(self.counts), axis=0)


@dataclass(frozen=True)
class LoopNest:
    """A perfect loop nest: ``loops`` outermost-first around ``body``."""

    loops: tuple[Loop, ...]
    body: tuple[Statement, ...]
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "loops", tuple(self.loops))
        object.__setattr__(self, "body", tuple(self.body))
        if not self.loops:
            raise IRError("nest needs at least one loop")
        if not self.body:
            raise IRError("nest needs at least one statement")
        seen: set[str] = set()
        for lp in self.loops:
            if lp.var in seen:
                raise IRError(f"duplicate loop variable {lp.var!r} in nest")
            seen.add(lp.var)
        # Bounds may reference only *outer* loop variables.
        outer: set[str] = set()
        for lp in self.loops:
            for bound in lp.all_bounds:
                for v in bound.variables:
                    if v not in outer:
                        raise IRError(
                            f"loop {lp.var}: bound uses {v!r}, which is not an "
                            f"enclosing loop variable"
                        )
            outer.add(lp.var)
        for st in self.body:
            for ref in st.refs:
                for v in ref.variables:
                    if v not in seen:
                        raise IRError(
                            f"reference {ref!r} uses unknown loop variable {v!r}"
                        )

    @property
    def depth(self) -> int:
        return len(self.loops)

    @property
    def loop_vars(self) -> tuple[str, ...]:
        return tuple(lp.var for lp in self.loops)

    @property
    def refs(self) -> tuple[ArrayRef, ...]:
        """All references in statement order."""
        out: list[ArrayRef] = []
        for st in self.body:
            out.extend(st.refs)
        return tuple(out)

    @property
    def unique_refs(self) -> tuple[tuple[ArrayRef, int], ...]:
        """Distinct references (read/write flag dropped) with multiplicities.

        In first-occurrence order.  After fusion a nest can name the same
        element twice ("dots may represent two identical references");
        only the first occurrence can fault.
        """
        counts: dict[tuple, int] = {}
        for r in self.refs:
            key = (r.array, r.subscripts)
            counts[key] = counts.get(key, 0) + 1
        return tuple((ArrayRef(a, s), m) for (a, s), m in counts.items())

    @property
    def refs_per_iteration(self) -> int:
        return sum(len(st.refs) for st in self.body)

    @property
    def flops_per_iteration(self) -> int:
        return sum(st.flops for st in self.body)

    @property
    def is_rectangular(self) -> bool:
        return all(lp.is_rectangular for lp in self.loops)

    def concrete_from(self, level: int) -> bool:
        """True when the sub-nest from ``level`` inward is rectangular once
        outer indices are fixed.

        Holds when no bound from ``level`` inward references a loop
        variable at or inside ``level`` -- the condition :meth:`rows` needs
        before it may treat the remaining loops as an independent product
        space.
        """
        inner_vars = {lp.var for lp in self.loops[level:]}
        return not any(
            v in inner_vars
            for lp in self.loops[level:]
            for bound in lp.all_bounds
            for v in bound.variables
        )

    def rows(self) -> Rows:
        """Enumerate the nest's rows with NumPy.

        A row is one combination of values of the loops above the first
        level ``p`` where :meth:`concrete_from` holds (none for a
        rectangular nest, which is a single row).  Rows come out in
        execution order, built by one ragged expansion per outer loop;
        each row's inner trip counts then follow from one vectorized
        :meth:`Loop.concrete_trips` per inner loop.  ``p`` is below
        ``depth``: the innermost loop's bounds only use outer variables.
        """
        level = next(p for p in range(self.depth) if self.concrete_from(p))
        env: dict[str, np.ndarray] = {}
        size = 1
        for lp in self.loops[:level]:
            first, count = lp.concrete_trips(env, size)
            parent, values = ragged_range(first, count, lp.step)
            env = {v: a[parent] for v, a in env.items()}
            env[lp.var] = values
            size = values.size
        trips = [lp.concrete_trips(env, size) for lp in self.loops[level:]]
        return Rows(
            level,
            tuple(env.values()),
            tuple(first for first, _ in trips),
            tuple(count for _, count in trips),
        )

    def iterations(self) -> int:
        """Total iteration count: the sum of every row's inner iterations
        (for a rectangular nest, one row: the product of trip counts)."""
        if self.is_rectangular:
            return math.prod(lp.trip_count() for lp in self.loops)
        return int(self.rows().iterations.sum())

    def arrays_used(self) -> tuple[str, ...]:
        return tuple(sorted({r.array for r in self.refs}))

    def with_loops(self, loops: tuple[Loop, ...]) -> "LoopNest":
        return LoopNest(loops, self.body, self.label)

    def with_body(self, body: tuple[Statement, ...]) -> "LoopNest":
        return LoopNest(self.loops, body, self.label)
