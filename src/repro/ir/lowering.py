"""One lowered form per program: address = base + constant + coefficients.

The paper's layout model (Section 3) places every reference at its
array's base address plus an affine byte offset, and a pad moves only
the base.  :func:`lower` turns a :class:`~repro.ir.program.Program` into
that form once, as integer tables, and every address reader -- the trace
generator, the layout diagram, the reuse, group and conflict analyses,
the footprint and span rules, the exactness proof, the predictor and the
scheduler's cost estimate -- reads the tables instead of re-deriving the
offset.

Per nest (:class:`LoweredNest`) it holds the statement-order references
with the index of their unique reference and each unique reference's
multiplicity; per unique reference the array id, the constant byte
offset and one coefficient column per loop; and the nest's loop-value
ranges and canonical point.  A reference's address at loop values ``v``
is ``base[array] + const + coeff . v``; a layout contributes only the
base vector (:meth:`LoweredProgram.bases`).

:meth:`~repro.ir.refs.ArrayRef.offset_expr` stays the reference
definition of the offset; this module is its only reader.  The form is
memoized per live program (:func:`repro.util.memo.memoize`), and
layout-independent results derived from it hang off the same object
(:meth:`LoweredNest.cached`, :meth:`LoweredProgram.cached`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, TypeVar

import numpy as np

from repro.ir.arrays import ArrayDecl
from repro.ir.loops import LoopNest
from repro.ir.program import Program
from repro.ir.ranges import canonical_env, loop_var_ranges
from repro.ir.refs import ArrayRef
from repro.util.memo import memoize

__all__ = ["LoweredNest", "LoweredProgram", "lower", "span_rule", "frozen_array"]

T = TypeVar("T")


def frozen_array(values, dtype=np.int64) -> np.ndarray:
    """A read-only array of ``values``: tables shared by every reader."""
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


def span_rule(
    const, coeff: np.ndarray, ranges: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(lo, hi)`` of ``const + coeff[:, u] . v`` over loop values ``v``
    in ``ranges[l] = (min, max)``, per column ``u``: each coefficient
    contributes its extreme values (interval arithmetic, exact when the
    loops are independent, a sound hull when bounds are triangular)."""
    low, high = coeff * ranges[:, :1], coeff * ranges[:, 1:]
    return (
        const + np.minimum(low, high).sum(axis=0),
        const + np.maximum(low, high).sum(axis=0),
    )


class _Memo:
    """Values derived from a lowered form, computed once per key."""

    def cached(self, key, build: Callable[[], T]) -> T:
        """``build()``, computed once per ``key`` for this object."""
        try:
            return self.memo[key]
        except KeyError:
            value = self.memo[key] = build()
            return value


@dataclass(frozen=True, eq=False)
class LoweredNest(_Memo):
    """One nest as integer tables.

    ``refs[r]`` (statement order) is the unique reference
    ``unique[index[r]]`` (read/write flag dropped, first-occurrence
    order, ``slots`` maps ``(array, subscripts)`` to its index), which
    occurs ``multiplicity[u]`` times.  Unique reference ``u`` addresses
    array ``array[u]`` (an index into :attr:`LoweredProgram.names`) at
    ``const[u] + coeff[:, u] . v`` bytes past the array base for loop
    values ``v``.  Loop ``l`` takes values in ``ranges[l] = (min, max)``;
    ``point`` is the canonical iteration (every loop at its first value).
    ``lo[u]``/``hi[u]`` bound the offset over ``ranges`` (:func:`span_rule`)
    and ``element[u]`` is the element size.
    """

    nest: LoopNest
    refs: tuple[ArrayRef, ...]
    unique: tuple[ArrayRef, ...]
    slots: dict[tuple, int]
    index: np.ndarray
    multiplicity: tuple[int, ...]
    array: np.ndarray
    const: np.ndarray
    coeff: np.ndarray
    ranges: np.ndarray
    point: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    element: np.ndarray
    memo: dict = field(default_factory=dict, repr=False)

    @property
    def iterations(self) -> int:
        """:meth:`LoopNest.iterations`, counted once."""
        return self.cached("iterations", self.nest.iterations)

    def slot(self, ref: ArrayRef) -> int:
        """The unique-reference index of ``ref``."""
        return self.slots[ref.array, ref.subscripts]


def _lower_nest(decls: dict[str, ArrayDecl], nest: LoopNest) -> LoweredNest:
    """Lower one nest against ``decls`` (array id = declaration order)."""
    ids = {name: k for k, name in enumerate(decls)}
    level = {v: l for l, v in enumerate(nest.loop_vars)}
    counted = nest.unique_refs
    unique = tuple(r for r, _ in counted)
    const = np.zeros(len(unique), dtype=np.int64)
    coeff = np.zeros((nest.depth, len(unique)), dtype=np.int64)
    for u, ref in enumerate(unique):
        off = ref.offset_expr(decls[ref.array])
        const[u] = off.constant
        for name, k in off.sorted_terms:
            coeff[level[name], u] = k
    ranges = loop_var_ranges(nest)
    bounds = frozen_array([ranges[v] for v in nest.loop_vars])
    env = canonical_env(nest)
    slots = {(r.array, r.subscripts): u for u, r in enumerate(unique)}
    lo, hi = span_rule(const, coeff, bounds)
    return LoweredNest(
        nest=nest,
        refs=nest.refs,
        unique=unique,
        slots=slots,
        index=frozen_array([slots[r.array, r.subscripts] for r in nest.refs], np.intp),
        multiplicity=tuple(m for _, m in counted),
        array=frozen_array([ids[r.array] for r in unique], np.intp),
        const=frozen_array(const),
        coeff=frozen_array(coeff),
        ranges=bounds,
        point=frozen_array([env[v] for v in nest.loop_vars]),
        lo=frozen_array(lo),
        hi=frozen_array(hi),
        element=frozen_array([decls[r.array].element_size for r in unique]),
    )


@dataclass(frozen=True, eq=False)
class LoweredProgram(_Memo):
    """A program's nests lowered (:class:`LoweredNest`) against its arrays.

    Array id ``k`` is ``names[k]``, the program's declaration order;
    ``used`` names the arrays some nest references.  Holds no reference
    to the program, so memoizing it per program never keeps the program
    alive.
    """

    names: tuple[str, ...]
    nests: tuple[LoweredNest, ...]
    used: frozenset[str]
    decls: dict[str, ArrayDecl] = field(repr=False)
    memo: dict = field(default_factory=dict, repr=False)

    def nest(self, nest: LoopNest) -> LoweredNest:
        """The lowered form of ``nest``: the program's own when ``nest`` is
        one of its nests, else lowered afresh against the program's arrays
        (e.g. a fused candidate not yet in the program)."""
        for lowered in self.nests:
            if lowered.nest is nest:
                return lowered
        return _lower_nest(self.decls, nest)

    def bases(self, layout) -> np.ndarray:
        """The layout's base address of each array, by array id (0 for an
        array no nest references, which a layout may leave out)."""
        bases = layout.bases()
        return np.array(
            [bases[n] if n in self.used else bases.get(n, 0) for n in self.names],
            dtype=np.int64,
        )


def _lower_program(program: Program) -> LoweredProgram:
    decls = {a.name: a for a in program.arrays}
    nests = tuple(_lower_nest(decls, nest) for nest in program.nests)
    return LoweredProgram(
        names=tuple(decls),
        nests=nests,
        used=frozenset(r.array for low in nests for r in low.unique),
        decls=decls,
    )


#: ``id(program) -> (weak reference to program, LoweredProgram)``.
_LOWERED: dict = {}


def lower(program: Program) -> LoweredProgram:
    """The program's lowered form, built once per live program."""
    return memoize(_LOWERED, program, _lower_program)
