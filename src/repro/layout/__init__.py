"""Data layout: array base addresses, pads, conflicts, and cache diagrams.

Mirrors the paper's experimental setup (Section 6.1): every optimized
variable becomes a field of one large global structure, so the compiler
controls base addresses by ordering fields and inserting pad variables.
:class:`DataLayout` is that structure; the padding transformations in
:mod:`repro.transforms` produce new layouts, and
:mod:`repro.layout.diagram` reproduces the paper's dots-and-arcs cache
diagrams (Figures 3, 4, 5, 7) that drive PAD, GROUPPAD and the fusion model.
"""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.layout.layout": ("DataLayout",),
    "repro.layout.conflicts": (
        "ConflictReport", "delta_interval", "interval_conflicts_with_cache",
        "nest_severe_conflicts", "program_severe_conflicts",
    ),
    "repro.layout.diagram": ("CacheDiagram", "Dot", "Arc"),
})
