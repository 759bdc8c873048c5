"""Streaming (chunk-at-a-time) cache simulation.

Large programs are traced as a sequence of NumPy chunks
(:mod:`repro.trace.generator`); these simulators carry cache state between
chunks so whole-program miss counts are identical to simulating the
concatenated trace, with bounded memory.

For a direct-mapped level the carried state is the line each set holds.
:class:`StreamingDirectCache` is the one direct-mapped core (the one-shot
:mod:`repro.cache.direct` helpers feed it a single chunk): a packed-key
sort groups a chunk by set, and only each set's *first* access in the
chunk needs the carried line.  Chunks of the default trace budget keep
its int32 intermediates cache-resident.

For a k-way level the carried state is a ``(num_sets, k)`` LRU line
matrix (:class:`~repro.cache.assoc_vec.StreamingAssocCache`, the one
k-way core): chunk classification is fully vectorized, and the carried
stacks are replayed as virtual leading accesses so chunked simulation
stays byte-identical to one-shot replay.

:class:`StreamingHierarchy` is the one hierarchy: a one-shot run is
``StreamingHierarchy(config).feed_all([trace]).result()``.  The
sequential oracle (:mod:`repro.cache.assoc`) chains its own levels and
is deliberately not importable from here.
"""

from __future__ import annotations

import time

import numpy as np

from repro.cache.assoc_vec import (
    StreamingAssocCache,
    line_numbers,
    packed_group_sort,
    set_index,
)
from repro.cache.config import CacheConfig, HierarchyConfig, check_geometry, check_trace
from repro.cache.stats import LevelStats, SimulationResult
from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer

__all__ = [
    "StreamingDirectCache",
    "StreamingAssocCache",
    "StreamingHierarchy",
]


class StreamingDirectCache:
    """Direct-mapped cache carrying the line each set holds across chunks.

    An access hits exactly when the previous access to its set touched
    the same line (within one set, equal tags and equal lines are the
    same thing, so no tag is ever computed).  ``feed`` groups a chunk by
    set with one :func:`~repro.cache.assoc_vec.packed_group_sort`, so
    each set's accesses sit together in program order, and compares
    every access with its predecessor in the group -- or, for a set's
    first access in the chunk, with the carried line.
    """

    def __init__(self, size: int, line_size: int):
        self.num_sets = check_geometry(size, line_size)
        self.size = size
        self.line_size = line_size
        self._set_bits = max(1, (self.num_sets - 1).bit_length())
        self._lines = np.full(self.num_sets, -1, dtype=np.int64)
        self._top = 0  # largest line number seen, for the dtype choice
        self.accesses = 0
        self.misses = 0

    def feed(self, addresses: np.ndarray) -> np.ndarray:
        """Classify one chunk; returns its miss mask and updates state."""
        addresses = check_trace(addresses)
        n = addresses.size
        if n == 0:
            return np.zeros(0, dtype=bool)
        # Line numbers below 2^31 (every address below 2^31 * line_size)
        # run the whole pipeline in int32: half the memory traffic, and
        # a 64k-reference chunk's intermediates stay cache-resident.
        self._top = max(self._top, int(addresses.max()) // self.line_size)
        dtype = np.int32 if self._top < np.iinfo(np.int32).max else np.int64
        lines = line_numbers(addresses, self.line_size, out=np.empty(n, dtype))
        sets, pos = packed_group_sort(set_index(lines, self.num_sets), self._set_bits)
        lines = np.take(lines, pos, mode="wrap")  # valid indices: skip the check

        first = np.empty(n, dtype=bool)
        first[0] = True
        np.not_equal(sets[1:], sets[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        run_sets = sets[starts]
        # Each access's predecessor in its set: the previous grouped
        # access, or the carried line at the start of a set's run.
        prev = np.empty_like(lines)
        prev[1:] = lines[:-1]
        prev[starts] = self._lines[run_sets]
        # Carry out the last line of each run.
        self._lines[run_sets[:-1]] = lines[starts[1:] - 1]
        self._lines[run_sets[-1]] = lines[-1]

        miss_grouped = lines != prev
        miss = np.empty(n, dtype=bool)
        miss[pos] = miss_grouped
        self.accesses += n
        self.misses += int(np.count_nonzero(miss_grouped))
        return miss


def _make_level(cfg: CacheConfig):
    if cfg.is_direct_mapped:
        return StreamingDirectCache(cfg.size, cfg.line_size)
    return StreamingAssocCache(cfg.size, cfg.line_size, cfg.associativity)


class StreamingHierarchy:
    """Multi-level streaming simulation: feed chunks, then read the result.

    The one hierarchy chain: L1 sees every reference and each lower level
    exactly the miss stream of the level above.

    Example
    -------
    >>> from repro.cache import StreamingHierarchy, ultrasparc_i
    >>> import numpy as np
    >>> sim = StreamingHierarchy(ultrasparc_i()).feed_all([np.arange(0, 1 << 16, 4)])
    >>> round(sim.result().miss_rate("L1"), 3)
    0.125

    Pass a :class:`repro.obs.timeline.Timeline` to also accumulate
    windowed per-level telemetry: ``feed`` then splits each chunk at
    window boundaries (re-reading ``timeline.window_refs`` per slice,
    since coalescing can widen it mid-run) and records each slice's
    per-level ``(accesses, misses)`` delta.  Window boundaries land at
    exactly the same reference positions regardless of how the trace was
    chunked, and every reference lands in exactly one window, so the
    timeline's totals equal :meth:`result`'s bit-for-bit -- the
    property ``tests/properties/test_property_timeline.py`` pins.
    """

    def __init__(self, config: HierarchyConfig, timeline=None):
        self.config = config
        self._levels = [_make_level(cfg) for cfg in config]
        self.total_refs = 0
        self.timeline = timeline
        # Resolved once: `feed` is the hot path and the registry lookup,
        # cheap as it is, should not recur per chunk.
        self._refs_counter = get_metrics().counter("cache.refs")

    def _feed_levels(self, stream: np.ndarray) -> None:
        for level in self._levels:
            mask = level.feed(stream)
            stream = stream[mask]

    def feed(self, addresses: np.ndarray) -> None:
        """Push one trace chunk through every level.

        Instrumentation stays at chunk granularity: one counter add per
        chunk always, one histogram observation per chunk only while a
        tracer is active -- nothing per reference, so the disabled
        overhead is a single branch (``benchmarks/test_bench_obs.py``
        guards this stays under 2% of simulator throughput).
        """
        addresses = np.asarray(addresses, dtype=np.int64)
        tracer = get_tracer()
        t0 = time.perf_counter() if tracer.enabled else 0.0
        n = int(addresses.size)
        if self.timeline is None:
            self.total_refs += n
            self._feed_levels(addresses)
        else:
            pos = 0
            while pos < n:
                window = self.timeline.window_refs
                take = min(window - self.total_refs % window, n - pos)
                start_ref = self.total_refs
                before = [(lv.accesses, lv.misses) for lv in self._levels]
                self._feed_levels(addresses[pos:pos + take])
                self.timeline.record(
                    start_ref,
                    start_ref + take,
                    [(lv.accesses - acc, lv.misses - miss)
                     for lv, (acc, miss) in zip(self._levels, before)],
                )
                self.total_refs += take
                pos += take
        self._refs_counter.inc(n)
        if tracer.enabled:
            get_metrics().histogram("cache.chunk_seconds").observe(
                time.perf_counter() - t0
            )

    def feed_all(self, chunks) -> "StreamingHierarchy":
        """Consume an iterable of chunks; returns self for chaining."""
        for chunk in chunks:
            self.feed(chunk)
        return self

    def result(self) -> SimulationResult:
        """Aggregate statistics of everything fed so far."""
        return SimulationResult(
            total_refs=self.total_refs,
            levels=tuple(
                LevelStats(name=cfg.name, accesses=lv.accesses, misses=lv.misses)
                for cfg, lv in zip(self.config, self._levels)
            ),
        )
