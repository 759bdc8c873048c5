"""Shared utilities: modular arithmetic, validation, text tables."""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.util.mathutil": (
        "ceil_div", "circular_distance", "gcd_list", "is_power_of_two",
        "next_multiple", "round_to_multiple",
    ),
    "repro.util.tabulate": ("format_table",),
})
