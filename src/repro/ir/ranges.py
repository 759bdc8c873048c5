"""Interval evaluation of affine expressions over a nest's index ranges.

Conflict detection and footprint analysis need the *range* an affine
expression can take over a nest's iteration space.  For affine bounds this
is exact interval arithmetic: evaluate each loop's bounds over the ranges
of its enclosing loops, then propagate.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import IRError
from repro.ir.affine import AffineExpr
from repro.ir.loops import Loop, LoopNest

__all__ = ["affine_interval", "loop_var_ranges", "canonical_env"]


def affine_interval(
    expr: AffineExpr, ranges: dict[str, tuple[int, int]]
) -> tuple[int, int]:
    """Tight (lo, hi) bounds of ``expr`` over independent variable ranges.

    Exact when variables are independent (coefficients contribute their
    extreme values separately); for loop nests with correlated bounds it is
    a sound over-approximation.
    """
    lo = hi = expr.constant
    for name, coeff in expr.terms.items():
        if name not in ranges:
            raise IRError(f"no range known for variable {name!r} in {expr!r}")
        vlo, vhi = ranges[name]
        if vlo > vhi:
            raise IRError(f"empty range for {name!r}: ({vlo}, {vhi})")
        if coeff >= 0:
            lo += coeff * vlo
            hi += coeff * vhi
        else:
            lo += coeff * vhi
            hi += coeff * vlo
    return lo, hi


def loop_var_ranges(
    nest: LoopNest | Sequence[Loop],
) -> dict[str, tuple[int, int]]:
    """(min, max) value of each loop variable over the whole nest.

    ``nest`` may also be its loops alone, outermost first (a nest still
    being built).  Handles symbolic bounds (triangular nests) by
    interval-evaluating each bound over the enclosing variables' ranges.
    Empty loops yield the degenerate range of their lower bound.
    """
    loops = nest.loops if isinstance(nest, LoopNest) else nest
    ranges: dict[str, tuple[int, int]] = {}
    for lp in loops:
        lower_ivs = [affine_interval(l, ranges) for l in lp.lowers]
        lo_lo = max(iv[0] for iv in lower_ivs)
        lo_hi = max(iv[1] for iv in lower_ivs)
        upper_ivs = [affine_interval(u, ranges) for u in lp.uppers]
        hi_lo = min(iv[0] for iv in upper_ivs)
        hi_hi = min(iv[1] for iv in upper_ivs)
        if lp.step > 0:
            vmin, vmax = lo_lo, max(hi_hi, lo_lo)
        else:
            vmin, vmax = min(hi_lo, lo_hi), lo_hi
        ranges[lp.var] = (vmin, vmax)
    return ranges


def canonical_env(nest: LoopNest) -> dict[str, int]:
    """A representative iteration point: every loop at its first iteration.

    Used to place reference dots in cache-layout diagrams -- relative
    positions of uniformly generated references are iteration-invariant,
    so any common iteration serves.
    """
    env: dict[str, int] = {}
    for lp in nest.loops:
        env[lp.var] = lp.effective_lower(env)
    return env
