"""PAD and MULTILVLPAD: inter-variable padding against severe conflicts.

PAD (Rivera & Tseng, PLDI '98; paper Section 3.1.1) walks the variables in
layout order and, for each one, increments its base address one cache line
at a time until no reference to it maps within one line of a reference to
any already-placed variable, in any loop nest.  "In practice, PAD requires
only a few cache lines of padding per variable."

MULTILVLPAD (Section 3.1.2) is PAD run against a single *virtual* cache:
size S1 (the smallest cache) with line size Lmax (the largest line at any
level).  Because each cache size divides the next, two references kept at
least Lmax apart modulo S1 stay at least that far apart modulo every k*S1
-- severe conflicts are avoided at all levels with one pass.

Only reference pairs whose address difference is iteration-invariant
(uniformly generated pairs, which is all the paper's programs contain) can
conflict on *every* iteration; pairs with varying deltas cannot be fixed
by padding and are ignored, as in PAD.  Those constant deltas come from
the program's layout diagram (:class:`repro.layout.diagram.DiagramGeometry`)
and the test is its :func:`~repro.layout.diagram.severe_conflict`, run
over every pad of a variable's line ring at once: the first free pad is
the one the line-by-line walk would stop at.
"""

from __future__ import annotations

from repro.cache.config import HierarchyConfig
from repro.errors import TransformError
from repro.ir.program import Program
from repro.layout.diagram import DiagramGeometry, check_cache, severe_conflict
from repro.layout.layout import DataLayout

__all__ = ["pad", "multilvl_pad", "pad_explicit_levels"]


def _pad_against(
    program: Program,
    layout: DataLayout,
    cache_sizes: list[int],
    line_size: int,
    max_lines_per_var: int | None = None,
) -> DataLayout:
    for size in cache_sizes:
        check_cache(size, line_size, TransformError)
    limit = max_lines_per_var
    if limit is None:
        # Beyond a full cache of lines no new relative positions exist.
        limit = max(cache_sizes) // line_size

    geometry = DiagramGeometry.of(program)
    bases = layout.bases()
    ring = range(0, (limit + 1) * line_size, line_size)
    shift = 0  # padding added so far, which moves every later array
    out = layout
    placed: set[str] = set()
    for name in layout.order:
        bases[name] += shift
        free = ~severe_conflict(
            geometry, bases, name, placed, cache_sizes, line_size, (name,), ring
        )
        if not free.any():
            raise TransformError(
                f"PAD could not free {name!r} of severe conflicts within "
                f"{limit} lines of padding"
            )
        pad = ring[int(free.argmax())]
        bases[name] += pad
        shift += pad
        out = out.add_pad(name, pad)
        placed.add(name)
    return out


def pad(
    program: Program,
    layout: DataLayout,
    cache_size: int,
    line_size: int,
    max_lines_per_var: int | None = None,
) -> DataLayout:
    """Apply PAD for a single cache level; returns the padded layout."""
    return _pad_against(program, layout, [cache_size], line_size, max_lines_per_var)


def multilvl_pad(
    program: Program,
    layout: DataLayout,
    hierarchy: HierarchyConfig,
    max_lines_per_var: int | None = None,
) -> DataLayout:
    """MULTILVLPAD: one PAD pass against the (S1, Lmax) virtual cache."""
    cfg = hierarchy.multilevel_pad_config()
    return pad(program, layout, cfg.size, cfg.line_size, max_lines_per_var)


def pad_explicit_levels(
    program: Program,
    layout: DataLayout,
    hierarchy: HierarchyConfig,
    max_lines_per_var: int | None = None,
) -> DataLayout:
    """The direct generalization: test conflicts at *every* level.

    Section 3.1.2's first variant ("base addresses are tested for conflicts
    with respect to all cache levels instead of just one cache").  Uses the
    largest line size as the separation unit so one increment step is valid
    for every level.
    """
    sizes = [cfg.size for cfg in hierarchy]
    return _pad_against(
        program, layout, sizes, hierarchy.max_line_size, max_lines_per_var
    )
