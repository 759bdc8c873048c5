"""Simulation statistics.

Follows the paper's reporting convention (Section 6.1): miss rates at every
level are normalized to the *total* number of memory references issued by
the program, so an L2 miss rate of 5% means 5% of all references missed
both caches, regardless of how many reached the L2.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["LevelStats", "SimulationResult"]


@dataclass(frozen=True)
class LevelStats:
    """Access/miss counters for one cache level."""

    name: str
    accesses: int
    misses: int

    def __post_init__(self) -> None:
        if self.accesses < 0 or self.misses < 0:
            raise ValueError("counters must be non-negative")
        if self.misses > self.accesses:
            raise ValueError(
                f"{self.name}: misses ({self.misses}) exceed accesses ({self.accesses})"
            )


@dataclass(frozen=True)
class SimulationResult:
    """Result of simulating one trace through a hierarchy."""

    total_refs: int
    levels: tuple[LevelStats, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "levels", tuple(self.levels))
        if self.total_refs < 0:
            raise ValueError("total_refs must be non-negative")
        if not self.levels:
            raise ValueError("at least one level of statistics is required")

    def level(self, name: str) -> LevelStats:
        """Look up a level's stats by name ("L1", "L2", ...)."""
        for lv in self.levels:
            if lv.name == name:
                return lv
        raise KeyError(f"no cache level named {name!r}")

    def miss_rate(self, name: str) -> float:
        """Misses at level ``name`` divided by *total* references (paper norm)."""
        if self.total_refs == 0:
            return 0.0
        return self.level(name).misses / self.total_refs

    @property
    def memory_refs(self) -> int:
        """References that missed every cache level (went to main memory)."""
        return self.levels[-1].misses

    def cycles(self, hierarchy) -> float:
        """Estimated execution cycles of the memory system under ``hierarchy``.

        Each reference pays the L1 hit cost; each miss at level *i*
        additionally pays the next level's hit cost (or memory cost at the
        last level).  This simple additive model substitutes for the
        paper's hardware timings; see DESIGN.md, Substitutions.
        """
        total = self.total_refs * hierarchy.levels[0].hit_cycles
        for i, lv in enumerate(self.levels):
            total += lv.misses * hierarchy.miss_cycles(i)
        return total

    def summary(self) -> str:
        parts = [f"refs={self.total_refs}"]
        for lv in self.levels:
            rate = self.miss_rate(lv.name)
            parts.append(f"{lv.name}: {lv.misses} misses ({100.0 * rate:.2f}%)")
        return ", ".join(parts)
