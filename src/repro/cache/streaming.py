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
``StreamingHierarchy(config).feed_all([trace]).result()``.  It checks
each chunk once, hands its levels line numbers rather than addresses,
and drops L1's conflict-free MRU hits from chunks the trace generator
tagged with their segment shape before L1 sorts the rest.  The
sequential oracle (:mod:`repro.cache.assoc`) chains its own levels and
is deliberately not importable from here.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.cache.assoc_vec import (
    LineStream,
    StreamingAssocCache,
    chunk_lines,
    line_numbers,
    narrow_lines,
    packed_group_sort,
    set_index,
)
from repro.cache.config import (
    CacheConfig,
    HierarchyConfig,
    check_geometry,
    check_trace,
    segment_shape,
)
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


class _MruFilter:
    """Drops a first level's conflict-free MRU hits from segmented chunks.

    Access ``(i, r)`` of a segment (see
    :class:`~repro.cache.config.SegmentedTrace`), ``i >= 1``, is dropped
    when its line equals that of ``(i-1, r)`` and no other column ``c``
    can map to the same set with another line in between: the byte delta
    ``A[c] - A[r]`` is affine over the segment, so its endpoints bound
    it, and its interval in lines, ``[floor(lo/L), ceil(hi/L)]``, must
    leave out every nonzero multiple of ``num_sets``.  A dropped access
    is then an MRU hit at any associativity and changes no LRU state, so
    every other outcome stays the same.
    """

    def __init__(self, line_size: int, num_sets: int):
        self.line_size = line_size
        self.span = num_sets * line_size  # bytes between same-set lines
        # The last chunk's segment endpoints (relative to each segment's
        # first address) and their safe columns: consecutive chunks of a
        # rectangular nest repeat them (85% of the tested chunks of the
        # full-size Figure 9 traces; see docs/simulators.md).
        self._memo: tuple | None = None

    def _safe(self, x: np.ndarray) -> np.ndarray:
        """``[segment, r]``: no other column of ``x = [segment, i, r]``
        can conflict with column ``r``."""
        ends = x[:, :: x.shape[1] - 1]  # iterations 0 and n-1
        rel = ends - ends[:, :1, :1]
        memo = self._memo
        if memo is not None and memo[0].shape == rel.shape and (memo[0] == rel).all():
            return memo[1]
        # Pair deltas at both ends, [segment, c, r]; lo and hi bound the
        # delta over the segment since it is affine in the iteration.
        # Three buffers of segments x refs^2, reused in place.
        first, last = rel[:, 0], rel[:, 1]
        d0 = first[:, :, None] - first[:, None, :]
        hi = last[:, :, None] - last[:, None, :]
        lo = np.minimum(d0, hi)
        np.maximum(d0, hi, out=hi)
        # A nonzero multiple k * num_sets in [floor(lo/L), ceil(hi/L)] is
        # a multiple k*C of the span C = num_sets * L with lo - L < k*C <
        # hi + L, i.e. -ka <= k <= kb for these ka and kb.
        ka = np.subtract(self.line_size - 1, lo, out=lo)
        ka //= self.span
        kb = np.add(hi, self.line_size - 1, out=hi)
        kb //= self.span
        nonzero = np.bitwise_or(ka, kb, out=d0) != 0
        conflict = (np.add(ka, kb, out=ka) >= 0) & nonzero
        safe = ~conflict.any(axis=1)
        self._memo = (rel, safe)
        return safe

    def keep(
        self,
        addresses: np.ndarray,
        lines: np.ndarray,
        segment: tuple[int, int] | None,
    ) -> tuple[np.ndarray | None, int]:
        """The accesses the level must classify (None: all of them), and
        how many are dropped.

        ``lines`` are the chunk's line numbers at this level.  A chunk
        without a segment shape keeps everything.
        """
        if segment is None or not lines.size:
            return None, 0
        n, refs = segment
        # The pair test costs segments x refs^2, at most half a chunk's
        # worth for segments at least twice as long as they are wide.
        if 2 * refs > n:
            return None, 0
        safe = self._safe(addresses.reshape(-1, n, refs))
        if not safe.any():
            return None, 0
        # One row per segment; iteration i of a row is its refs-wide slice.
        rows = lines.reshape(-1, n * refs)
        keep = np.empty(rows.shape, dtype=bool)
        keep[:, :refs] = True
        tail = keep[:, refs:]
        np.not_equal(rows[:, refs:], rows[:, :-refs], out=tail)
        segments, columns = np.nonzero(~safe)
        keep.reshape(-1, n, refs)[segments, 1:, columns] = True
        dropped = tail.size - int(np.count_nonzero(tail))
        if not dropped:
            return None, 0
        return keep.reshape(-1), dropped


class StreamingHierarchy:
    """Multi-level streaming simulation: feed chunks, then read the result.

    The one hierarchy chain: L1 sees every reference and each lower level
    exactly the miss stream of the level above.  Each chunk is checked
    once and converted once to line numbers in units of the gcd of the
    levels' line sizes (int32 whenever they fit); each level hands the
    next its misses in those units as a
    :class:`~repro.cache.assoc_vec.LineStream`.  In a chunk tagged with
    a segment shape (:class:`~repro.cache.config.SegmentedTrace`), L1's
    conflict-free MRU hits are dropped before L1 classifies the rest
    (:class:`_MruFilter`); they still count as L1 accesses that hit, and
    the ``cache.mru_elided`` counter totals them.

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
        self._unit = math.gcd(*(cfg.line_size for cfg in config))
        self._mru = _MruFilter(config.levels[0].line_size, self._levels[0].num_sets)
        self._level_seconds = [f"cache.{cfg.name}.chunk_seconds" for cfg in config]
        self.total_refs = 0
        self.timeline = timeline
        # Resolved once: `feed` is the hot path and the registry lookup,
        # cheap as it is, should not recur per chunk.
        metrics = get_metrics()
        self._refs_counter = metrics.counter("cache.refs")
        self._elided_counter = metrics.counter("cache.mru_elided")

    def _feed_levels(self, handoff: list, hits: int, timed: bool) -> None:
        """Push the unit line numbers L1 must classify, the one item of
        ``handoff``, through every level; ``hits`` more L1 accesses were
        dropped as MRU hits.

        When the caller keeps no other reference to the stream, as
        ``feed`` without a timeline does, each level's input and miss
        mask are freed as soon as the next level's stream is cut from
        them: one level's working set is live at a time.
        """
        stream = handoff.pop()
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

    def feed(self, addresses: np.ndarray) -> None:
        """Push one trace chunk through every level.

        Instrumentation stays at chunk granularity: two counter adds per
        chunk always, histogram observations per chunk and level only
        while a tracer is active -- nothing per reference, so the
        disabled overhead is a single branch
        (``benchmarks/test_bench_obs.py`` guards this stays under 2% of
        simulator throughput).
        """
        segment = segment_shape(addresses)
        addresses = check_trace(addresses)
        timed = get_tracer().enabled
        t0 = time.perf_counter() if timed else 0.0
        n = int(addresses.size)
        lines = narrow_lines(addresses, self._unit)
        factor = self._levels[0].line_size // self._unit
        keep, dropped = self._mru.keep(
            addresses,
            lines if factor == 1 else line_numbers(lines, factor),
            segment,
        )
        self._elided_counter.inc(dropped)
        if self.timeline is None:
            self.total_refs += n
            handoff = [lines if keep is None else lines[keep]]
            del lines, keep
            self._feed_levels(handoff, dropped, timed)
        else:
            pos = 0
            while pos < n:
                window = self.timeline.window_refs
                take = min(window - self.total_refs % window, n - pos)
                start_ref = self.total_refs
                before = [(lv.accesses, lv.misses) for lv in self._levels]
                part = lines[pos:pos + take]
                if keep is not None:
                    part = part[keep[pos:pos + take]]
                self._feed_levels([part], take - part.size, timed)
                self.timeline.record(
                    start_ref,
                    start_ref + take,
                    [(lv.accesses - acc, lv.misses - miss)
                     for lv, (acc, miss) in zip(self._levels, before)],
                )
                self.total_refs += take
                pos += take
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
