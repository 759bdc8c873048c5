"""Property-based tests: vectorized k-way LRU vs. the sequential oracle.

The contract is *exact* agreement -- per-reference miss masks, not just
counts -- on arbitrary traces, geometries, and chunkings.  The oracle is
:func:`repro.cache.assoc.miss_mask_assoc` (one access at a time,
obviously correct); :mod:`repro.cache.assoc_vec` must be bitwise
indistinguishable from it in every mode it can be driven.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cache.assoc import SequentialAssocCache, miss_mask_assoc
from repro.cache.assoc_vec import StreamingAssocCache, miss_mask_assoc_vec
from repro.cache.direct import miss_mask_direct

# (size, line_size) pairs, including a non-power-of-two size (768) so
# odd set counts are represented; combos where k does not divide the
# line count are filtered out per-test with assume().
geometries = st.sampled_from(
    [(256, 16), (512, 32), (768, 32), (1024, 32), (2048, 64), (4096, 32)]
)
assocs = st.sampled_from([1, 2, 3, 4, 8])
traces = st.lists(st.integers(min_value=0, max_value=1 << 16), max_size=300)
big_traces = st.lists(
    st.integers(min_value=0, max_value=(1 << 40)), min_size=1, max_size=120
)


class TestVectorizedEqualsOracle:
    @given(trace=traces, geom=geometries, k=assocs)
    @settings(max_examples=120, deadline=None)
    def test_miss_mask_exact(self, trace, geom, k):
        size, line = geom
        assume(size % (line * k) == 0)
        addrs = np.array(trace, dtype=np.int64)
        np.testing.assert_array_equal(
            miss_mask_assoc_vec(addrs, size, line, k),
            miss_mask_assoc(addrs, size, line, k),
        )

    @given(trace=big_traces, geom=geometries, k=assocs)
    @settings(max_examples=40, deadline=None)
    def test_miss_mask_exact_wide_addresses(self, trace, geom, k):
        """Addresses beyond int32 lines exercise the int64 pipeline."""
        size, line = geom
        assume(size % (line * k) == 0)
        addrs = np.array(trace, dtype=np.int64)
        np.testing.assert_array_equal(
            miss_mask_assoc_vec(addrs, size, line, k),
            miss_mask_assoc(addrs, size, line, k),
        )

    @given(trace=traces, geom=geometries)
    @settings(max_examples=60, deadline=None)
    def test_k1_equals_direct_mapped(self, trace, geom):
        size, line = geom
        addrs = np.array(trace, dtype=np.int64)
        np.testing.assert_array_equal(
            miss_mask_assoc_vec(addrs, size, line, 1),
            miss_mask_direct(addrs, size, line),
        )


class TestChunkBoundaryCarry:
    @given(
        trace=traces,
        geom=geometries,
        k=assocs,
        cuts=st.lists(st.integers(min_value=0, max_value=300), max_size=4),
    )
    @settings(max_examples=80, deadline=None)
    def test_arbitrary_splits_equal_one_shot(self, trace, geom, k, cuts):
        """Feeding any chunking through StreamingAssocCache reproduces the
        one-shot oracle mask exactly (empty chunks included)."""
        size, line = geom
        assume(size % (line * k) == 0)
        addrs = np.array(trace, dtype=np.int64)
        ref = miss_mask_assoc(addrs, size, line, k)
        cache = StreamingAssocCache(size, line, k)
        pieces = np.split(addrs, sorted(min(c, addrs.size) for c in cuts))
        got = [cache.feed(p) for p in pieces]
        np.testing.assert_array_equal(
            np.concatenate(got) if got else np.zeros(0, dtype=bool), ref
        )
        assert cache.accesses == addrs.size
        assert cache.misses == int(ref.sum())

    @given(
        trace=traces,
        geom=geometries,
        k=assocs,
        cut=st.integers(min_value=0, max_value=300),
    )
    @settings(max_examples=60, deadline=None)
    def test_streaming_matches_sequential_streaming(self, trace, geom, k, cut):
        """The vectorized and sequential streaming caches agree chunk by
        chunk, including their running counters."""
        size, line = geom
        assume(size % (line * k) == 0)
        addrs = np.array(trace, dtype=np.int64)
        cut = min(cut, addrs.size)
        vec = StreamingAssocCache(size, line, k)
        seq = SequentialAssocCache(size, line, k)
        for piece in (addrs[:cut], addrs[cut:]):
            np.testing.assert_array_equal(vec.feed(piece), seq.feed(piece))
        assert (vec.accesses, vec.misses) == (seq.accesses, seq.misses)

    @given(trace=traces, geom=geometries, k=assocs)
    @settings(max_examples=40, deadline=None)
    def test_state_reuse_across_feeds(self, trace, geom, k):
        """A second feed of the same trace sees the carried LRU stacks,
        and still matches the oracle on the doubled trace."""
        size, line = geom
        assume(size % (line * k) == 0)
        addrs = np.array(trace, dtype=np.int64)
        cache = StreamingAssocCache(size, line, k)
        got = np.concatenate([cache.feed(addrs), cache.feed(addrs)])
        ref = miss_mask_assoc(
            np.concatenate([addrs, addrs]), size, line, k
        )
        np.testing.assert_array_equal(got, ref)


class TestLRUStructure:
    @given(trace=traces, geom=geometries, k=st.sampled_from([2, 4]))
    @settings(max_examples=40, deadline=None)
    def test_more_ways_never_increase_fully_assoc_misses(self, trace, geom, k):
        """At one set (fully associative), LRU stack inclusion: more ways
        can only remove misses -- checked on the vectorized path."""
        size, line = geom
        addrs = np.array(trace, dtype=np.int64)
        small = miss_mask_assoc_vec(addrs, k * line, line, k)
        large = miss_mask_assoc_vec(addrs, 2 * k * line, line, 2 * k)
        assert not (large & ~small).any()
