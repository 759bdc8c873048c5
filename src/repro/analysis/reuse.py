"""Reuse classification per Wolf & Lam (cited as [29] in the paper).

Reuse is *temporal* (same location) or *spatial* (same cache line), and
*self* (one reference) or *group* (between uniformly generated
references).  Classification is per (reference, loop) pair: a loop
carries self-temporal reuse for a reference when the reference's address
does not depend on that loop's variable, and self-spatial reuse when
consecutive iterations move the address by less than a line.

A reference's per-loop stride is its lowered coefficient
(:func:`repro.ir.lowering.lower`) times the loop step.

The innermost-locality score built on top is the standard memory-order
cost model used to choose loop permutations (McKinley, Carr & Tseng [18]):
it is cache-size independent, which is the paper's Section 2 argument for
why permutation need not know about multiple cache levels.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.ir.loops import LoopNest
from repro.ir.lowering import lower
from repro.ir.program import Program
from repro.ir.refs import ArrayRef

__all__ = [
    "ReuseKind",
    "RefReuse",
    "classify_ref",
    "classify_nest",
    "innermost_locality_score",
]


class ReuseKind(enum.Enum):
    """How a reference behaves with respect to one loop."""

    TEMPORAL = "temporal"  # address invariant in the loop
    SPATIAL = "spatial"  # address moves by < line_size per iteration
    NONE = "none"  # address strides by >= line_size per iteration


@dataclass(frozen=True)
class RefReuse:
    """Self-reuse classification of one reference against every loop."""

    ref: ArrayRef
    per_loop: tuple[tuple[str, ReuseKind], ...]

    def kind(self, loop_var: str) -> ReuseKind:
        for var_name, kind in self.per_loop:
            if var_name == loop_var:
                return kind
        raise KeyError(f"loop {loop_var!r} not in classification")


def classify_ref(
    program: Program,
    nest: LoopNest,
    ref: ArrayRef,
    line_size: int,
) -> RefReuse:
    """Classify ``ref``'s self reuse with respect to each loop of the nest."""
    low = lower(program).nest(nest)
    column = low.coeff[:, low.slot(ref)].tolist()
    per_loop = []
    for lp, coeff in zip(nest.loops, column):
        stride = coeff * lp.step
        if stride == 0:
            kind = ReuseKind.TEMPORAL
        elif abs(stride) < line_size:
            kind = ReuseKind.SPATIAL
        else:
            kind = ReuseKind.NONE
        per_loop.append((lp.var, kind))
    return RefReuse(ref=ref, per_loop=tuple(per_loop))


def classify_nest(
    program: Program, nest: LoopNest, line_size: int
) -> list[RefReuse]:
    """Classification of every reference of the nest (statement order)."""
    return [classify_ref(program, nest, r, line_size) for r in nest.refs]


def innermost_locality_score(
    program: Program,
    nest: LoopNest,
    candidate_var: str,
    line_size: int,
) -> float:
    """Locality earned if ``candidate_var`` were the innermost loop.

    Temporal reuse scores a full reused access per iteration; spatial
    reuse scores the fraction of a line re-touched per iteration
    (``1 - |stride|/line``); no reuse scores zero.  Loop permutation picks
    the order that places the highest-scoring loop innermost -- note the
    score depends on the line size but on *no* cache size, so any level's
    line size yields the same ranking for these codes (Section 2.1).
    """
    if candidate_var not in nest.loop_vars:
        return float(nest.refs_per_iteration)  # every address is invariant
    low = lower(program).nest(nest)
    l = nest.loop_vars.index(candidate_var)
    row = (low.coeff[l] * nest.loops[l].step).tolist()
    total = 0.0
    for u in low.index.tolist():
        stride = abs(row[u])
        if stride == 0:
            total += 1.0
        elif stride < line_size:
            total += 1.0 - stride / line_size
    return total
