"""Streaming (chunk-at-a-time) cache simulation.

Large programs are traced as a sequence of NumPy chunks
(:mod:`repro.trace.generator`); these simulators carry cache state between
chunks so whole-program miss counts are identical to simulating the
concatenated trace, with bounded memory.

For a direct-mapped level the carried state is the line each set holds.
:class:`StreamingDirectCache` is the one direct-mapped core (the one-shot
:mod:`repro.cache.direct` helpers feed it a single chunk): a packed-key
sort groups a chunk by set, and only each set's *first* access in the
chunk needs the carried line.  A line chunk the trace generator cuts
holds at most its chunk budget of kept lines (it may stand for several
times as many references), so a level feed's int32 intermediates stay
cache-resident.

For a k-way level the carried state is a ``(num_sets, k)`` LRU line
matrix (:class:`~repro.cache.assoc_vec.StreamingAssocCache`, the one
k-way core): chunk classification is fully vectorized, and the carried
stacks are replayed as virtual leading accesses so chunked simulation
stays byte-identical to one-shot replay.

:class:`StreamingHierarchy` is the one hierarchy.  It is fed line
numbers, never addresses: a :class:`~repro.cache.config.LineChunk` the
trace generator cut for it goes to L1 as it is, without the
conflict-free MRU hits the generator never built, and an address trace
enters as ``LineChunk.from_addresses(trace, config)``, every access
kept.  The sequential oracle (:mod:`repro.cache.assoc`) chains its own
levels and is deliberately not importable from here.
"""

from __future__ import annotations

import time

import numpy as np

from repro.cache.assoc_vec import (
    LineStream,
    StreamingAssocCache,
    chunk_lines,
    packed_group_sort,
    set_index,
)
from repro.cache.config import (
    CacheConfig,
    HierarchyConfig,
    LineChunk,
    check_geometry,
    line_geometry,
)
from repro.cache.stats import LevelStats, SimulationResult
from repro.errors import SimulationError
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
        self.accesses = 0
        self.misses = 0

    def feed(self, addresses) -> np.ndarray | None:
        """Classify one chunk; returns its miss mask and updates state.

        ``addresses`` is a byte-address array or a
        :class:`~repro.cache.assoc_vec.LineStream`.
        """
        lines, hits, mask = chunk_lines(addresses, self.line_size)
        self.accesses += hits
        n = lines.size
        if n == 0:
            return np.zeros(0, dtype=bool) if mask else None
        sets, pos = packed_group_sort(set_index(lines, self.num_sets), self._set_bits)
        lines = np.take(lines, pos, mode="wrap")  # valid indices: skip the check

        # Each access misses unless its predecessor in its set -- the
        # previous grouped access, or the carried line at the start of a
        # set's run -- touched the same line.
        miss_grouped = np.empty(n, dtype=bool)
        miss_grouped[0] = True
        np.not_equal(sets[1:], sets[:-1], out=miss_grouped[1:])
        starts = np.flatnonzero(miss_grouped)
        run_sets = sets[starts]
        np.not_equal(lines[1:], lines[:-1], out=miss_grouped[1:])
        miss_grouped[starts] = lines[starts] != self._lines[run_sets]
        # Carry out the last line of each run.
        self._lines[run_sets[:-1]] = lines[starts[1:] - 1]
        self._lines[run_sets[-1]] = lines[-1]

        self.accesses += n
        misses = int(np.count_nonzero(miss_grouped))
        self.misses += misses
        if not mask:
            return None
        # Back to program order, scattering the rarer outcome only.
        if misses <= n >> 1:
            miss = np.zeros(n, dtype=bool)
            miss[pos[miss_grouped]] = True
        else:
            miss = np.ones(n, dtype=bool)
            miss[pos[~miss_grouped]] = False
        return miss


def _make_level(cfg: CacheConfig):
    if cfg.is_direct_mapped:
        return StreamingDirectCache(cfg.size, cfg.line_size)
    return StreamingAssocCache(cfg.size, cfg.line_size, cfg.associativity)


class StreamingHierarchy:
    """Multi-level streaming simulation: feed chunks, then read the result.

    The one hierarchy chain: L1 sees every reference and each lower level
    exactly the miss stream of the level above.  It is fed line chunks
    (:class:`~repro.cache.config.LineChunk`) cut for its geometry: line
    numbers in units of the gcd of the levels' line sizes (int32
    whenever they fit), without L1's conflict-free MRU hits; those still
    count as L1 accesses that hit, and the ``cache.mru_elided`` counter
    totals them.  Each level hands the next its misses in the same
    units as a :class:`~repro.cache.assoc_vec.LineStream`.  An address
    trace enters through
    :meth:`~repro.cache.config.LineChunk.from_addresses`, which keeps
    every access.

    Example
    -------
    >>> from repro.cache import StreamingHierarchy, ultrasparc_i
    >>> from repro.cache.config import LineChunk
    >>> import numpy as np
    >>> hier = ultrasparc_i()
    >>> chunk = LineChunk.from_addresses(np.arange(0, 1 << 16, 4), hier)
    >>> round(StreamingHierarchy(hier).feed_all([chunk]).result().miss_rate("L1"), 3)
    0.125

    Pass a :class:`repro.obs.timeline.Timeline` to also accumulate
    windowed per-level telemetry: ``feed`` then splits each chunk at
    window boundaries (re-reading ``timeline.window_refs`` per slice,
    since coalescing can widen it mid-run) and records each slice's
    per-level ``(accesses, misses)`` delta; a dropped hit counts in the
    window of its position.  Window boundaries land at exactly the same
    reference positions regardless of how the trace was chunked, and
    every reference lands in exactly one window, so the timeline's
    totals equal :meth:`result`'s bit-for-bit -- the property
    ``tests/properties/test_property_timeline.py`` pins.
    """

    def __init__(self, config: HierarchyConfig, timeline=None):
        self.config = config
        self._levels = [_make_level(cfg) for cfg in config]
        self._geometry = line_geometry(config)
        self._unit = self._geometry[0]
        self._level_seconds = [f"cache.{cfg.name}.chunk_seconds" for cfg in config]
        self.total_refs = 0
        self.timeline = timeline
        # Resolved once: `feed` is the hot path and the registry lookup,
        # cheap as it is, should not recur per chunk.
        metrics = get_metrics()
        self._refs_counter = metrics.counter("cache.refs")
        self._elided_counter = metrics.counter("cache.mru_elided")

    def _feed_levels(self, stream: np.ndarray, hits: int, timed: bool) -> None:
        """Push the unit line numbers L1 must classify through every
        level; ``hits`` more L1 accesses were dropped as MRU hits."""
        last = len(self._levels) - 1
        for i, level in enumerate(self._levels):
            t0 = time.perf_counter() if timed else 0.0
            if i < last:
                stream = stream[level.feed(LineStream(stream, self._unit, hits))]
                hits = 0
            else:
                level.feed(LineStream(stream, self._unit, hits, mask=False))
            if timed:
                get_metrics().histogram(self._level_seconds[i]).observe(
                    time.perf_counter() - t0
                )

    def feed(self, chunk: LineChunk) -> None:
        """Push one :class:`~repro.cache.config.LineChunk` cut for this
        hierarchy through every level.

        Instrumentation stays at chunk granularity: two counter adds per
        chunk always, histogram observations per chunk and level only
        while a tracer is active -- nothing per reference, so the
        disabled overhead is a single branch
        (``benchmarks/test_bench_obs.py`` guards this stays under 2% of
        simulator throughput).
        """
        timed = get_tracer().enabled
        t0 = time.perf_counter() if timed else 0.0
        if not isinstance(chunk, LineChunk):
            raise SimulationError(
                f"a hierarchy is fed LineChunks, got {type(chunk).__name__}; "
                "wrap addresses with LineChunk.from_addresses"
            )
        if chunk.geometry != self._geometry:
            raise SimulationError(
                f"line chunk cut for (unit, L1 line, L1 sets) "
                f"{chunk.geometry}, hierarchy has {self._geometry}"
            )
        lines, n, dropped = chunk.lines, chunk.refs, chunk.dropped
        self._elided_counter.inc(dropped)
        if self.timeline is None:
            self.total_refs += n
            self._feed_levels(lines, dropped, timed)
        else:
            # Kept accesses by position: a dropped hit counts in the
            # window it falls in.
            where = chunk.positions() if dropped else None
            pos = kept = 0
            while pos < n:
                window = self.timeline.window_refs
                take = min(window - self.total_refs % window, n - pos)
                end = pos + take if where is None else int(
                    np.searchsorted(where, pos + take)
                )
                start_ref = self.total_refs
                before = [(lv.accesses, lv.misses) for lv in self._levels]
                part = lines[kept:end]
                self._feed_levels(part, take - part.size, timed)
                self.timeline.record(
                    start_ref,
                    start_ref + take,
                    [(lv.accesses - acc, lv.misses - miss)
                     for lv, (acc, miss) in zip(self._levels, before)],
                )
                self.total_refs += take
                pos += take
                kept = end
        self._refs_counter.inc(n)
        if timed:
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
