"""Loop permutation with the memory-order cost model.

Loop permutation reorders a nest's loops to bring reuse closer in time
(Figure 1).  Legality here is structural: a loop may only move inward past
loops its bounds do not depend on.  (The paper's codes are fully
permutable stencils; general dependence testing is out of scope and
permutation of the modeled kernels never reverses a dependence.)

:func:`memory_order` implements the "memory order" heuristic cited as
[18]: rank every loop by its locality if placed innermost.  The score uses
only the line size -- Section 2.1's argument for why permutation is
insensitive to the number of cache levels.
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.reuse import innermost_locality_score
from repro.errors import TransformError
from repro.ir.loops import LoopNest
from repro.ir.program import Program

__all__ = ["permute_nest", "memory_order"]


def permute_nest(nest: LoopNest, order: Sequence[str]) -> LoopNest:
    """Reorder the nest's loops to ``order`` (outermost first).

    Raises :class:`TransformError` when ``order`` is not a permutation of
    the nest's loop variables or when a bound would reference a variable
    that is no longer enclosing.
    """
    order = tuple(order)
    if sorted(order) != sorted(nest.loop_vars):
        raise TransformError(
            f"{order} is not a permutation of loops {nest.loop_vars}"
        )
    by_var = {lp.var: lp for lp in nest.loops}
    new_loops = tuple(by_var[v] for v in order)
    seen: set[str] = set()
    for lp in new_loops:
        for bound in lp.all_bounds:
            for v in bound.variables:
                if v not in seen:
                    raise TransformError(
                        f"cannot permute: bound of loop {lp.var} depends on "
                        f"{v!r}, which would no longer be an outer loop"
                    )
        seen.add(lp.var)
    return LoopNest(new_loops, nest.body, nest.label)


def memory_order(
    program: Program,
    nest: LoopNest,
    line_size: int,
) -> LoopNest:
    """Full memory-order permutation: rank *every* loop by locality.

    Sorts loops so the most locality-carrying one is innermost, the next
    one second-innermost, and so on -- McKinley/Carr/Tseng's "memory
    order" [18].  When the ideal order is structurally illegal (a bound
    depends on a loop that would move inside it) the offending loop is
    hoisted just far enough out, preserving the rest of the ranking.
    """
    order = sorted(
        nest.loop_vars,
        key=lambda v: innermost_locality_score(program, nest, v, line_size),
    )  # worst (outermost) first
    # Repair legality: every loop whose bounds mention v must come after v.
    by_var = {lp.var: lp for lp in nest.loops}
    changed = True
    while changed:
        changed = False
        for i, v in enumerate(order):
            deps = {
                w
                for b in by_var[v].all_bounds
                for w in b.variables
                if w in by_var
            }
            for w in deps:
                j = order.index(w)
                if j > i:  # bound var w must enclose v
                    order.pop(j)
                    order.insert(i, w)
                    changed = True
                    break
            if changed:
                break
    return permute_nest(nest, order)
