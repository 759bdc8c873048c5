"""Data layout: array base addresses, pads, conflicts, and cache diagrams.

Mirrors the paper's experimental setup (Section 6.1): every optimized
variable becomes a field of one large global structure, so the compiler
controls base addresses by ordering fields and inserting pad variables.
:class:`DataLayout` is that structure; the padding transformations in
:mod:`repro.transforms` produce new layouts, and
:mod:`repro.layout.diagram` reproduces the paper's dots-and-arcs cache
diagrams (Figures 3, 4, 5, 7) that drive PAD, GROUPPAD and the fusion model.
"""

from repro.layout.layout import DataLayout
from repro.layout.conflicts import (
    ConflictReport,
    delta_interval,
    interval_conflicts_with_cache,
    nest_severe_conflicts,
    program_severe_conflicts,
)
from repro.layout.diagram import Arc, CacheDiagram, Dot

__all__ = [
    "DataLayout",
    "ConflictReport",
    "CacheDiagram",
    "Dot",
    "Arc",
    "delta_interval",
    "interval_conflicts_with_cache",
    "nest_severe_conflicts",
    "program_severe_conflicts",
]
