"""Trace-free closed-form miss counting.

The symbolic tier computes per-level miss counts for affine loop nests
directly from the IR -- no address trace, no simulator.  Where it can
prove the *no-eviction* property (every set of a level receives at most
as many distinct lines as it has ways) its counts are exact, bit-for-bit
what the LRU simulator reports; everywhere else it degrades gracefully
to the analytic predictor's estimates, with every term carrying an
explicit ``exact`` flag so downstream consumers know which is which.

See ``docs/symbolic.md`` for the term derivation and the exactness
rules.  This is an analysis (``ext_symbolic``), not an executor backend.
"""

from repro.symbolic.engine import (
    LevelClassification,
    analyze_job,
    analyze_program,
    classify_job,
    classify_program,
)
from repro.symbolic.lines import (
    DEFAULT_MAX_OFFSETS,
    DEFAULT_MAX_STEPS,
    distinct_lines,
    distinct_offsets,
    max_set_occupancy,
    ref_distinct_offsets,
    unique_ref_exprs,
)
from repro.symbolic.terms import (
    TERM_KINDS,
    SymbolicLevel,
    SymbolicStats,
    SymbolicTerm,
)

__all__ = [
    "TERM_KINDS",
    "SymbolicTerm",
    "SymbolicLevel",
    "SymbolicStats",
    "LevelClassification",
    "classify_program",
    "classify_job",
    "analyze_program",
    "analyze_job",
    "DEFAULT_MAX_OFFSETS",
    "DEFAULT_MAX_STEPS",
    "unique_ref_exprs",
    "ref_distinct_offsets",
    "distinct_offsets",
    "distinct_lines",
    "max_set_occupancy",
]
