"""Shared utilities: modular arithmetic, validation, text tables."""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.util.mathutil": ("circular_distance",),
    "repro.util.tabulate": ("format_table",),
})
