"""Miss-cost weighting for the compile-time profitability tests.

Fusion profitability (Section 4) scales reuse gains by the cost of a
miss at each level; :class:`MissCostModel` derives those penalties from
a hierarchy's cycle costs.  Per-nest miss *counts* are predicted by
:mod:`repro.model.predictor` ("the compiler can predict relative cache
miss rates fairly accurately by analyzing group reuse", Section 6.4).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.config import HierarchyConfig

__all__ = ["MissCostModel"]


@dataclass(frozen=True)
class MissCostModel:
    """Per-level miss penalties derived from a hierarchy's cycle costs.

    ``l1_miss_cost`` is what an L1 miss that hits L2 costs; ``l2_miss_cost``
    what a reference going to memory costs (both beyond the L1 hit cost
    every reference pays).  Fusion profitability compares reuse gains
    "scaled by the cost of cache misses at that level" (Section 4).
    """

    l1_miss_cost: float
    l2_miss_cost: float

    @classmethod
    def from_hierarchy(cls, hierarchy: HierarchyConfig) -> "MissCostModel":
        return cls(
            l1_miss_cost=hierarchy.miss_cycles(0),
            l2_miss_cost=hierarchy.miss_cycles(len(hierarchy) - 1),
        )

    def weighted(self, l1_misses: float, l2_misses: float) -> float:
        """Total penalty cycles for the given miss counts."""
        return l1_misses * self.l1_miss_cost + l2_misses * self.l2_miss_cost
