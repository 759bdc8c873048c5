"""LRU stack (reuse) distances and the cold/capacity/conflict taxonomy.

The paper's padding transformations attack *conflict* misses specifically.
This module makes that claim measurable: the classic three-way split
(Hill's taxonomy) classifies each direct-mapped miss as

* **cold** -- first touch of the line;
* **capacity** -- would miss even on a fully-associative LRU cache of the
  same size (reuse distance >= number of lines);
* **conflict** -- hits fully-associative but misses direct-mapped (the
  set-mapping's fault; exactly what inter-variable padding can fix).

Reuse distances are computed with the standard Fenwick-tree algorithm
(O(N log N)): the distance of an access is the number of *distinct* lines
touched since the previous access to its line.

Tests assert the paper's premise directly: PAD removes conflict misses
while leaving cold and capacity misses untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cache.config import CacheConfig, check_trace
from repro.cache.direct import miss_mask_direct
from repro.errors import SimulationError

__all__ = ["reuse_distances", "MissTaxonomy", "classify_misses"]


def reuse_distances(addresses: np.ndarray, line_size: int) -> np.ndarray:
    """LRU stack distance of every access, in cache lines.

    Returns an int64 array: -1 for a line's first access (cold), otherwise
    the number of distinct lines referenced since the last access to the
    same line.  An access with distance d hits a fully-associative LRU
    cache iff d < capacity_in_lines.
    """
    if line_size <= 0:
        raise SimulationError(f"line_size must be positive, got {line_size}")
    addresses = check_trace(addresses)
    n = addresses.size
    out = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return out

    lines = (addresses // line_size).tolist()
    # Fenwick tree over access positions 1..n: tree[i] == 1 when position i
    # is some line's most recent access.
    tree = [0] * (n + 1)

    def update(i: int, delta: int) -> None:
        while i <= n:
            tree[i] += delta
            i += i & (-i)

    def query(i: int) -> int:
        s = 0
        while i > 0:
            s += tree[i]
            i -= i & (-i)
        return s

    last_pos: dict[int, int] = {}
    for idx, line in enumerate(lines):
        pos = idx + 1
        prev = last_pos.get(line)
        if prev is not None:
            # Distinct lines touched strictly between prev and pos.
            out[idx] = query(pos - 1) - query(prev)
            update(prev, -1)
        update(pos, 1)
        last_pos[line] = pos
    return out


@dataclass(frozen=True)
class MissTaxonomy:
    """Cold / capacity / conflict decomposition of a direct-mapped run."""

    total_refs: int
    cold: int
    capacity: int
    conflict: int

    def rate(self, kind: str) -> float:
        if self.total_refs == 0:
            return 0.0
        return getattr(self, kind) / self.total_refs

    def __str__(self) -> str:
        return (
            f"cold={self.cold}, capacity={self.capacity}, "
            f"conflict={self.conflict} (of {self.total_refs} refs)"
        )


def classify_misses(addresses: np.ndarray, cache: CacheConfig) -> MissTaxonomy:
    """Split a direct-mapped cache's misses into cold/capacity/conflict.

    Conflict misses are exactly the direct-mapped misses a
    fully-associative cache of the same size would have hit -- the
    population inter-variable padding exists to eliminate.
    """
    addresses = np.asarray(addresses, dtype=np.int64)
    dm = miss_mask_direct(addresses, cache.size, cache.line_size)
    d = reuse_distances(addresses, cache.line_size)
    capacity_lines = cache.size // cache.line_size
    cold_mask = d < 0  # first touch always misses direct-mapped too
    fa_miss = cold_mask | (d >= capacity_lines)
    cold = int(cold_mask.sum())
    # Classify *direct-mapped* misses only, so the three classes sum to
    # the direct-mapped miss count exactly.  (A fully-associative miss the
    # direct-mapped cache happens to hit is an LRU-depth anomaly, not a
    # miss to explain.)
    capacity = int((dm & fa_miss & ~cold_mask).sum())
    conflict = int((dm & ~fa_miss).sum())
    return MissTaxonomy(
        total_refs=int(addresses.size),
        cold=cold,
        capacity=capacity,
        conflict=conflict,
    )
