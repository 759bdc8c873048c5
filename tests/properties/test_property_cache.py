"""Property-based tests of the cache simulators (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.assoc import SequentialAssocCache, miss_mask_assoc
from repro.cache.direct import miss_mask_direct
from repro.cache.streaming import StreamingDirectCache

# (size, line): powers of two take the shift/mask path; non-power-of-two
# line sizes (12, 24, 48) and set counts (7, 10, 33) the // and % fallback.
geometries = st.sampled_from(
    [(256, 16), (512, 32), (1024, 32), (2048, 64), (4096, 32),
     (12 * 16, 12), (32 * 7, 32), (24 * 10, 24), (48 * 33, 48)]
)
traces = st.lists(st.integers(min_value=0, max_value=1 << 16), max_size=300)


def naive_direct(addresses, size, line_size):
    num_sets = size // line_size
    tags = {}
    out = []
    for a in addresses:
        line = a // line_size
        s, t = line % num_sets, line // num_sets
        out.append(tags.get(s) != t)
        tags[s] = t
    return np.array(out, dtype=bool)


class TestDirectMapped:
    @given(trace=traces, geom=geometries)
    @settings(max_examples=60, deadline=None)
    def test_vectorized_equals_naive(self, trace, geom):
        size, line = geom
        addrs = np.array(trace, dtype=np.int64)
        np.testing.assert_array_equal(
            miss_mask_direct(addrs, size, line), naive_direct(addrs, size, line)
        )

    @given(trace=traces, geom=geometries)
    @settings(max_examples=60, deadline=None)
    def test_assoc1_equals_direct(self, trace, geom):
        size, line = geom
        addrs = np.array(trace, dtype=np.int64)
        np.testing.assert_array_equal(
            miss_mask_assoc(addrs, size, line, 1),
            miss_mask_direct(addrs, size, line),
        )

    @given(trace=traces, geom=geometries, assoc=st.sampled_from([2, 4]))
    @settings(max_examples=40, deadline=None)
    def test_higher_associativity_never_more_misses_fullyassoc(
        self, trace, geom, assoc
    ):
        """LRU inclusion: on a *fully-associative* cache, growing the way
        count (capacity) never adds misses.  (Same-set-count comparisons
        can legitimately invert -- Belady anomalies need FIFO -- but LRU
        stack inclusion guarantees monotonicity at a fixed set count of 1.)"""
        size, line = geom
        addrs = np.array(trace, dtype=np.int64)
        ways_small = size // line
        small = miss_mask_assoc(addrs, size, line, ways_small).sum()
        big = miss_mask_assoc(addrs, assoc * size, line, assoc * ways_small).sum()
        assert big <= small

    @given(
        trace=st.lists(st.integers(0, 1 << 14), min_size=1, max_size=200),
        cut=st.integers(0, 200),
    )
    @settings(max_examples=60, deadline=None)
    def test_streaming_split_invariance(self, trace, cut):
        addrs = np.array(trace, dtype=np.int64)
        cut = min(cut, addrs.size)
        mono = miss_mask_direct(addrs, 512, 32)
        cache = StreamingDirectCache(512, 32)
        part = np.concatenate([cache.feed(addrs[:cut]), cache.feed(addrs[cut:])])
        np.testing.assert_array_equal(part, mono)

    @given(trace=traces)
    @settings(max_examples=40, deadline=None)
    def test_cold_misses_lower_bound(self, trace):
        addrs = np.array(trace, dtype=np.int64)
        misses = int(miss_mask_direct(addrs, 1024, 32).sum())
        unique_lines = len({a // 32 for a in trace})
        assert misses >= unique_lines  # every distinct line faults at least once
        assert misses <= len(trace)


def _feed_chunked(cache, addrs, cuts):
    return np.concatenate(
        [np.zeros(0, dtype=bool)] + [cache.feed(part) for part in np.split(addrs, cuts)]
    )


cut_points = st.lists(st.integers(0, 300), max_size=6).map(sorted)


class TestDirectMappedChunked:
    """The streaming core against both oracles under random chunkings."""

    @given(
        trace=traces,
        geom=geometries,
        cuts=cut_points,
        wide=st.sampled_from([None, "first", "second"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_chunked_equals_naive_and_sequential(self, trace, geom, cuts, wide):
        size, line = geom
        addrs = np.array(trace, dtype=np.int64)
        cuts = [min(c, addrs.size) for c in cuts]
        if wide is not None:
            # The trace again with line numbers past 2^31, before or after
            # it in its own chunks: the cache switches between its int32
            # and int64 line pipelines while lines of the other width are
            # still carried (for power-of-two lines, a far line equals its
            # near twin in the low 32 bits).
            far = addrs + (1 << 40)
            halves = (far, addrs) if wide == "first" else (addrs, far)
            addrs = np.concatenate(halves)
            cuts = sorted(cuts + [far.size])
        got = _feed_chunked(StreamingDirectCache(size, line), addrs, cuts)
        np.testing.assert_array_equal(got, naive_direct(addrs, size, line))
        np.testing.assert_array_equal(
            got, _feed_chunked(SequentialAssocCache(size, line, 1), addrs, cuts)
        )

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1100, 3000),
        line=st.sampled_from([16, 24]),
        cuts=st.lists(st.integers(0, 3000), max_size=6).map(sorted),
    )
    @settings(max_examples=12, deadline=None)
    def test_wide_packed_keys(self, seed, n, line, cuts):
        """2^20 + 1 sets and >1024-reference chunks overflow 31 key bits,
        forcing the int64 packed keys (and the % fallback)."""
        num_sets = (1 << 20) + 1
        size = num_sets * line
        rng = np.random.default_rng(seed)
        # A pool of 64 sets spread over the whole index range, each hit by
        # six different lines: same-set conflicts stay common despite the
        # huge set count, and the set indices need all 21 bits.
        sets = rng.choice(num_sets, 64, replace=False)[rng.integers(0, 64, n)]
        lines = rng.integers(0, 6, n) * num_sets + sets
        addrs = lines * line + rng.integers(0, line, n)
        cuts = [min(c, n) for c in cuts]
        # The one-shot feed packs 21 set bits with >= 11 position bits.
        assert (num_sets - 1).bit_length() + (n - 1).bit_length() > 31
        got = _feed_chunked(StreamingDirectCache(size, line), addrs, [])
        np.testing.assert_array_equal(got, naive_direct(addrs, size, line))
        np.testing.assert_array_equal(
            _feed_chunked(StreamingDirectCache(size, line), addrs, cuts), got
        )
        np.testing.assert_array_equal(
            _feed_chunked(SequentialAssocCache(size, line, 1), addrs, cuts), got
        )
