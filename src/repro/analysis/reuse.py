"""Self reuse per Wolf & Lam (cited as [29] in the paper).

Reuse is *temporal* (same location) or *spatial* (same cache line).  A
loop carries self-temporal reuse for a reference when the reference's
address does not depend on that loop's variable, and self-spatial reuse
when consecutive iterations move the address by less than a line.  A
reference's per-loop stride is its lowered coefficient
(:func:`repro.ir.lowering.lower`) times the loop step.

The innermost-locality score is the standard memory-order cost model
used to choose loop permutations (McKinley, Carr & Tseng [18]): it is
cache-size independent, which is the paper's Section 2 argument for
why permutation need not know about multiple cache levels.
"""

from __future__ import annotations

from repro.ir.loops import LoopNest
from repro.ir.lowering import lower
from repro.ir.program import Program

__all__ = ["innermost_locality_score"]


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
