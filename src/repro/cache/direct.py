"""One-shot direct-mapped cache simulation.

A direct-mapped cache holds exactly one line per set, so an access hits if
and only if the *most recent previous access to the same set* touched the
same line.  That predicate does not require replaying the trace: grouping
the accesses by set (one sort of packed keys) and comparing each access
with its predecessor in the group classifies every access in NumPy with no
Python-level loop.  The classification lives in
:class:`repro.cache.streaming.StreamingDirectCache`; this helper feeds it
the whole trace as a single chunk, so the one-shot and taxonomy paths
share one core with the streaming simulator.
"""

from __future__ import annotations

import numpy as np

from repro.cache.streaming import StreamingDirectCache

__all__ = ["miss_mask_direct"]


def miss_mask_direct(addresses: np.ndarray, size: int, line_size: int) -> np.ndarray:
    """Return a boolean array marking which accesses miss.

    Parameters
    ----------
    addresses:
        1-D integer array of byte addresses in program order.
    size, line_size:
        Cache capacity and line size in bytes; ``size`` must be a positive
        multiple of ``line_size``.
    """
    return StreamingDirectCache(size, line_size).feed(addresses)

