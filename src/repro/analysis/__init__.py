"""Locality analyses: reuse classification, group reuse, cost models.

These are the "compiler side" models -- what the paper's transformations
use to make decisions.  The cache simulator (:mod:`repro.cache`) is the
"evaluation side"; keeping them separate mirrors the paper's methodology,
where compile-time reuse analysis predicts what the simulator then
measures (Section 6.4 checks exactly that correspondence).
"""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.analysis.groups": (
        "ReuseArc", "UniformClass", "uniform_classes", "reuse_arcs",
    ),
    "repro.analysis.reuse": (
        "ReuseKind", "RefReuse", "classify_ref", "classify_nest",
        "innermost_locality_score",
    ),
    "repro.analysis.footprint": ("nest_footprint_bytes", "columns_in_cache"),
    "repro.analysis.costmodel": ("MissCostModel",),
    "repro.analysis.fusionmodel": (
        "FusionAccounting", "account_nests", "fusion_delta",
        "fusion_profitable",
    ),
})
