"""Locality analyses: reuse classification, group reuse, cost models.

These are the "compiler side" models -- what the paper's transformations
use to make decisions.  The cache simulator (:mod:`repro.cache`) is the
"evaluation side"; keeping them separate mirrors the paper's methodology,
where compile-time reuse analysis predicts what the simulator then
measures (Section 6.4 checks exactly that correspondence).
"""

from repro.analysis.groups import ReuseArc, UniformClass, uniform_classes, reuse_arcs
from repro.analysis.reuse import (
    ReuseKind,
    RefReuse,
    classify_ref,
    classify_nest,
    innermost_locality_score,
)
from repro.analysis.footprint import nest_footprint_bytes, columns_in_cache
from repro.analysis.costmodel import MissCostModel
from repro.analysis.fusionmodel import (
    FusionAccounting,
    account_nests,
    fusion_delta,
    fusion_profitable,
)

__all__ = [
    "ReuseArc",
    "UniformClass",
    "uniform_classes",
    "reuse_arcs",
    "ReuseKind",
    "RefReuse",
    "classify_ref",
    "classify_nest",
    "innermost_locality_score",
    "nest_footprint_bytes",
    "columns_in_cache",
    "MissCostModel",
    "FusionAccounting",
    "account_nests",
    "fusion_delta",
    "fusion_profitable",
]
