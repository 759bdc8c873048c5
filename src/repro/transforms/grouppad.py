"""GROUPPAD: padding that preserves group-temporal reuse (Section 3.2).

GROUPPAD inserts larger pads than PAD so the layout both avoids severe
conflicts and keeps group-reuse arcs exploitable on the cache: it
"considers for each variable a limited number of positions relative to
other variables, counts for each position the number of references
successfully exploiting group reuse at the L1 cache, and selects the
position maximizing this value."

The multi-level recursion (Section 3.2.2): after placing variables for the
L1 cache, later phases re-run the search for each lower level using *only
pads that are multiples of the previous level's cache size* -- adding
``m * S1`` to a base address changes nothing modulo S1, so the L1 layout
(conflicts and exploited arcs alike) is preserved exactly while group
reuse is re-optimized for the larger cache.

Every phase scores candidates with one scan over the program's layout
diagram, :func:`repro.layout.diagram.best_pad`, which scores all of a
variable's candidate pads as one array pass.
"""

from __future__ import annotations

from repro.cache.config import HierarchyConfig
from repro.errors import TransformError
from repro.ir.program import Program
from repro.layout.diagram import DiagramGeometry, best_pad, check_cache
from repro.layout.layout import DataLayout

__all__ = ["grouppad", "grouppad_recursive"]


def grouppad(
    program: Program,
    layout: DataLayout,
    cache_size: int,
    line_size: int,
    granularity: int | None = None,
    refine_passes: int = 1,
) -> DataLayout:
    """Apply GROUPPAD for one cache level.

    Each variable tries pads of ``0, g, 2g, ...`` up to one full cache
    (``g`` defaults to the line size); the pad maximizing the exploited
    group-reuse count among already-placed variables wins, with severe
    conflicts disqualifying a position (unless no conflict-free position
    exists) and smaller pads breaking ties.

    After the greedy placement, ``refine_passes`` rounds of coordinate
    descent re-choose each variable's pad with *all* other variables
    placed -- the greedy order can trap early variables in positions that
    block later arcs, and one refinement pass recovers most of that.
    """
    check_cache(cache_size, line_size, TransformError)
    if granularity is None:
        granularity = line_size
    if granularity <= 0 or cache_size % granularity != 0:
        raise TransformError(
            f"granularity {granularity} must divide cache size {cache_size}"
        )
    geometry = DiagramGeometry.of(program)

    def place(out: DataLayout, name: str, arrays, base_pad: int) -> int:
        ring = range(base_pad, base_pad + cache_size, granularity)
        return best_pad(
            geometry, out, name, ring, arrays, cache_size, line_size, (cache_size,)
        )

    out = layout
    for i, name in enumerate(layout.order[1:], 1):
        placed = layout.order[: i + 1]
        out = out.with_pad(name, place(out, name, placed, out.pads[i]))

    for _ in range(max(0, refine_passes)):
        changed = False
        for i, name in enumerate(layout.order[1:], 1):
            current_pad = out.pads[i]
            # Keep the residue, search the ring.
            new_pad = place(out, name, layout.order, current_pad % granularity)
            if new_pad != current_pad:
                out = out.with_pad(name, new_pad)
                changed = True
        if not changed:
            break
    return out


def grouppad_recursive(
    program: Program,
    layout: DataLayout,
    hierarchy: HierarchyConfig,
) -> DataLayout:
    """Multi-level GROUPPAD (Section 3.2.2).

    Phase 1 runs :func:`grouppad` for the L1 cache; each later phase
    re-optimizes group reuse for the next cache level using pads that are
    multiples of the previous level's size, preserving all earlier layouts.
    """
    levels = hierarchy.levels
    out = grouppad(program, layout, levels[0].size, levels[0].line_size)
    geometry = DiagramGeometry.of(program)
    for prev, cfg in zip(levels, levels[1:]):
        check_cache(cfg.size, cfg.line_size, TransformError)
        for i, name in enumerate(out.order[1:], 1):
            ring = range(out.pads[i], out.pads[i] + cfg.size, prev.size)
            pad = best_pad(
                geometry, out, name, ring, out.order[: i + 1],
                cfg.size, cfg.line_size, (),
            )
            out = out.with_pad(name, pad)
    return out
