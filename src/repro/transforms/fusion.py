"""Loop fusion (Section 4).

Fusion merges two adjacent, header-compatible nests into one nest running
both bodies.  It improves temporal locality (a value loaded by the first
body can be re-touched by the second in the same iteration) at the risk of
severe conflicts -- "applying inter-variable padding using the PAD
algorithm after loop fusion is important" -- and of losing group reuse on
the small L1 cache (the tradeoff quantified by
:mod:`repro.analysis.fusionmodel`).

Legality: by default a conservative dependence test rejects fusions that
would reorder a write against another access of the same location
(e.g. the Figure 2 pair, where nest 2 reads ``B(i,j+1)`` that nest 1 has
already rewritten).  The paper fuses that example anyway to study the
*locality* consequences; pass ``check="none"`` to do the same.
"""

from __future__ import annotations

from repro.errors import TransformError
from repro.ir.loops import LoopNest
from repro.ir.program import Program
from repro.ir.refs import ArrayRef

__all__ = ["can_fuse", "fuse_nests", "fusion_dependence_ok"]


def _header_rename(nest_a: LoopNest, nest_b: LoopNest) -> dict[str, str] | None:
    """Mapping from nest_b's loop vars to nest_a's, or None if incompatible."""
    if nest_a.depth != nest_b.depth:
        return None
    mapping: dict[str, str] = {}
    for la, lb in zip(nest_a.loops, nest_b.loops):
        mapping[lb.var] = la.var
    for la, lb in zip(nest_a.loops, nest_b.loops):
        if lb.step != la.step or len(lb.extra_uppers) != len(la.extra_uppers):
            return None
        if lb.lower.rename(mapping) != la.lower:
            return None
        if lb.upper.rename(mapping) != la.upper:
            return None
        for ea, eb in zip(la.extra_uppers, lb.extra_uppers):
            if eb.rename(mapping) != ea:
                return None
    return mapping


def can_fuse(nest_a: LoopNest, nest_b: LoopNest) -> bool:
    """Are the two nests header-compatible (same bounds and steps)?"""
    return _header_rename(nest_a, nest_b) is not None


def _iteration_distance(
    ref_a: ArrayRef, ref_b: ArrayRef, loop_vars: tuple[str, ...]
) -> tuple[int, ...] | None:
    """Per-loop iteration distance d with ``ref_b(I + d) == ref_a(I)``.

    Requires each subscript to be a single loop variable (coefficient 1)
    plus a constant, the paper's reference shape; returns None otherwise,
    which callers treat as "unknown".
    """
    if ref_a.array != ref_b.array or ref_a.rank != ref_b.rank:
        return None
    dist = {v: 0 for v in loop_vars}
    for sa, sb in zip(ref_a.subscripts, ref_b.subscripts):
        va, vb = sa.variables, sb.variables
        if va != vb or len(va) > 1:
            return None
        if not va:
            if sa.constant != sb.constant:
                return None  # constant subscripts touching different planes
            continue
        v = va[0]
        if sa.coeff(v) != 1 or sb.coeff(v) != 1 or v not in dist:
            return None
        dist[v] += sa.constant - sb.constant
    return tuple(dist[v] for v in loop_vars)


def fusion_dependence_ok(
    program: Program, nest_a: LoopNest, nest_b: LoopNest
) -> bool:
    """Conservative legality: no dependence reversed by fusing a before b.

    In the original program every instance of ``nest_a`` runs before every
    instance of ``nest_b``.  After fusion, iteration I of nest_b's body
    runs before iterations > I of nest_a's body, which is illegal exactly
    when some same-location pair (one of them a write) has nest_b touching
    the location at a lexicographically *earlier* iteration than nest_a.
    Unanalyzable pairs count as illegal.
    """
    mapping = _header_rename(nest_a, nest_b)
    if mapping is None:
        return False
    loop_vars = nest_a.loop_vars
    for sa in nest_a.body:
        for ra in sa.refs:
            for sb in nest_b.body:
                for rb_orig in sb.refs:
                    rb = rb_orig.rename(mapping)
                    if ra.array != rb.array:
                        continue
                    if not (ra.is_write or rb_orig.is_write):
                        continue
                    d = _iteration_distance(ra, rb, loop_vars)
                    if d is None:
                        if ra.is_uniformly_generated_with(rb):
                            return False
                        # Different planes of the array: no overlap.
                        continue
                    # nest_b touches ra's location at iteration I + d; a
                    # negative (lexicographic) d reverses the dependence.
                    for component in d:
                        if component > 0:
                            break
                        if component < 0:
                            return False
    return True


def fuse_nests(
    program: Program,
    index_a: int,
    index_b: int,
    check: str = "strict",
    label: str | None = None,
) -> Program:
    """Fuse ``nests[index_b]`` into ``nests[index_a]`` (must be adjacent).

    ``check="strict"`` runs :func:`fusion_dependence_ok` and raises on
    failure; ``check="none"`` fuses unconditionally (the paper's usage for
    its locality study).
    """
    if check not in ("strict", "none"):
        raise TransformError(f"unknown check mode {check!r}")
    if index_b != index_a + 1:
        raise TransformError(
            f"only adjacent nests can fuse, got {index_a} and {index_b}"
        )
    nest_a, nest_b = program.nests[index_a], program.nests[index_b]
    mapping = _header_rename(nest_a, nest_b)
    if mapping is None:
        raise TransformError(
            f"nests {nest_a.label!r} and {nest_b.label!r} have incompatible headers"
        )
    if check == "strict" and not fusion_dependence_ok(program, nest_a, nest_b):
        raise TransformError(
            f"fusing {nest_a.label!r} and {nest_b.label!r} would reverse a "
            f"dependence; pass check='none' to fuse for locality study anyway"
        )
    body = nest_a.body + tuple(st.rename(mapping) for st in nest_b.body)
    fused = LoopNest(
        nest_a.loops, body, label or f"{nest_a.label}+{nest_b.label}"
    )
    nests = list(program.nests)
    nests[index_a] = fused
    del nests[index_b]
    return program.with_nests(nests)
