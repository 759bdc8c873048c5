"""Sequential set-associative LRU cache simulation (ground-truth oracle).

The paper treats all caches as direct-mapped and notes that "simply
treating k-way associative caches as direct-mapped for locality
optimizations achieves nearly all the benefits."  We nevertheless provide a
k-way LRU simulator: it serves as the ground-truth model the vectorized
simulators are validated against (associativity 1 must agree exactly with
the direct-mapped core, and :mod:`repro.cache.assoc_vec` must agree for
every k), and it lets users measure how much associativity would have
changed the paper's miss rates.

This model replays the trace one access at a time in Python.  It is the
*reference* implementation: deliberately simple, obviously correct, and
slow.  :class:`SequentialAssocCache` is the one oracle cache and
:func:`replay_hierarchy` the one oracle level chain; the ``oracle``
executor backend and the fuzz harness both run it.  Production paths use
:class:`repro.cache.streaming.StreamingHierarchy`, which is
property-tested against this module and never imports it.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.cache.config import HierarchyConfig, check_geometry, check_trace
from repro.cache.stats import LevelStats, SimulationResult

__all__ = ["SequentialAssocCache", "miss_mask_assoc", "replay_hierarchy"]


class SequentialAssocCache:
    """k-way LRU cache with persistent state (sequential reference replay).

    One access at a time, obviously correct, slow: the ground truth that
    :class:`~repro.cache.assoc_vec.StreamingAssocCache` and the
    direct-mapped core (``associativity=1``) are property-tested against.
    """

    def __init__(self, size: int, line_size: int, associativity: int):
        self.num_sets = check_geometry(size, line_size, associativity)
        self.size = size
        self.line_size = line_size
        self.associativity = associativity
        # One list of tags per set, most-recently-used first.
        self._sets: list[list[int]] = [[] for _ in range(self.num_sets)]
        self.accesses = 0
        self.misses = 0

    def feed(self, addresses: np.ndarray) -> np.ndarray:
        """Classify one chunk; returns its miss mask and updates LRU state."""
        addresses = check_trace(addresses)
        miss = np.zeros(addresses.size, dtype=bool)
        num_sets, k, sets = self.num_sets, self.associativity, self._sets
        for i, line in enumerate((addresses // self.line_size).tolist()):
            tag = line // num_sets
            ways = sets[line % num_sets]
            try:
                pos = ways.index(tag)
            except ValueError:
                miss[i] = True
                ways.insert(0, tag)
                if len(ways) > k:
                    ways.pop()
            else:
                if pos:
                    ways.insert(0, ways.pop(pos))
        self.accesses += int(addresses.size)
        self.misses += int(miss.sum())
        return miss


def miss_mask_assoc(
    addresses: np.ndarray,
    size: int,
    line_size: int,
    associativity: int,
) -> np.ndarray:
    """Boolean miss mask of the trace on a k-way LRU cache.

    ``size`` must be a multiple of ``line_size * associativity``.
    """
    return SequentialAssocCache(size, line_size, associativity).feed(addresses)


def replay_hierarchy(
    config: HierarchyConfig, chunks: Iterable[np.ndarray]
) -> SimulationResult:
    """Simulate a chunked trace on a chain of sequential LRU levels.

    The same filtering semantics as the vectorized simulator -- level
    *i+1* sees level *i*'s miss stream -- with the obviously correct
    cache at every level, direct-mapped ones included (k=1 LRU *is*
    direct-mapped).
    """
    caches = [
        SequentialAssocCache(c.size, c.line_size, c.associativity) for c in config
    ]
    total = 0
    for chunk in chunks:
        stream = np.asarray(chunk, dtype=np.int64)
        total += int(stream.size)
        for cache in caches:
            stream = stream[cache.feed(stream)]
    return SimulationResult(
        total_refs=total,
        levels=tuple(
            LevelStats(cfg.name, cache.accesses, cache.misses)
            for cfg, cache in zip(config, caches)
        ),
    )
