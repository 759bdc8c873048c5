"""Unit tests of the vectorized k-way LRU simulator."""

import numpy as np
import pytest

from repro.cache import StreamingAssocCache, StreamingHierarchy, assoc_vec, miss_mask_assoc_vec
from repro.cache.assoc import SequentialAssocCache, miss_mask_assoc
from repro.cache.config import DEFAULT_CHUNK_REFS, CacheConfig, HierarchyConfig, LineChunk
from repro.errors import SimulationError


class TestValidation:
    @pytest.mark.parametrize(
        "size,line,k",
        [(0, 32, 2), (1024, 0, 2), (1024, 32, 0), (1024, 32, -1), (100, 32, 2)],
    )
    def test_bad_geometry_raises(self, size, line, k):
        with pytest.raises(SimulationError):
            miss_mask_assoc_vec(np.zeros(1, dtype=np.int64), size, line, k)

    def test_negative_addresses_raise(self):
        with pytest.raises(SimulationError):
            miss_mask_assoc_vec(np.array([0, -4]), 1024, 32, 2)

    def test_non_1d_trace_raises(self):
        with pytest.raises(SimulationError):
            miss_mask_assoc_vec(np.zeros((2, 2), dtype=np.int64), 1024, 32, 2)

    def test_empty_trace(self):
        mask = miss_mask_assoc_vec(np.zeros(0, dtype=np.int64), 1024, 32, 2)
        assert mask.shape == (0,) and mask.dtype == bool


class TestKnownTraces:
    def test_two_way_conflict_triangle(self):
        """Three lines in one 2-way set: a, b, c, a, b, c thrashes (every
        access misses under LRU); a, b, a, b all hit after the first pair."""
        line, k, nsets = 32, 2, 4
        size = line * k * nsets
        same_set = size // k  # stride mapping back to set 0
        a, b, c = 0, same_set, 2 * same_set
        thrash = np.array([a, b, c, a, b, c], dtype=np.int64)
        np.testing.assert_array_equal(
            miss_mask_assoc_vec(thrash, size, line, k),
            np.array([True] * 6),
        )
        friendly = np.array([a, b, a, b, a, b], dtype=np.int64)
        np.testing.assert_array_equal(
            miss_mask_assoc_vec(friendly, size, line, k),
            np.array([True, True, False, False, False, False]),
        )

    def test_mru_repeats_hit(self):
        mask = miss_mask_assoc_vec(
            np.array([0, 0, 0, 4, 8], dtype=np.int64), 1024, 32, 2
        )
        np.testing.assert_array_equal(
            mask, np.array([True, False, False, False, False])
        )

    def test_simulate_counts_match_oracle(self):
        rng = np.random.default_rng(3)
        addrs = rng.integers(0, 1 << 14, size=4000).astype(np.int64)
        for k in (1, 2, 4):
            assert miss_mask_assoc_vec(addrs, 2048, 32, k).sum() == (
                miss_mask_assoc(addrs, 2048, 32, k).sum()
            )

    def test_non_power_of_two_geometry(self):
        """768-byte cache, 32-byte lines, 2-way: 12 sets -- the modulo
        (not mask) and floor-divide (not shift) code paths."""
        rng = np.random.default_rng(5)
        addrs = rng.integers(0, 1 << 13, size=2000).astype(np.int64)
        np.testing.assert_array_equal(
            miss_mask_assoc_vec(addrs, 768, 32, 2),
            miss_mask_assoc(addrs, 768, 32, 2),
        )
        np.testing.assert_array_equal(
            miss_mask_assoc_vec(addrs, 768, 48, 2),
            miss_mask_assoc(addrs, 768, 48, 2),
        )


class TestCarriedStack:
    def test_stack_tracks_mru_order(self):
        line, k = 32, 2
        cache = StreamingAssocCache(line * k, line, k)  # one set
        cache.feed(np.array([0, line], dtype=np.int64))
        # MRU first: line 1 then line 0.
        assert cache.stack.tolist() == [[1, 0]]
        cache.feed(np.array([0], dtype=np.int64))
        assert cache.stack.tolist() == [[0, 1]]

    def test_cold_stack_is_empty(self):
        cache = StreamingAssocCache(1024, 32, 4)
        assert (cache.stack == -1).all()

    def test_feed_accumulates_exactly(self):
        rng = np.random.default_rng(11)
        addrs = rng.integers(0, 1 << 15, size=5000).astype(np.int64)
        cache = StreamingAssocCache(2048, 64, 4)
        parts = np.split(addrs, [100, 101, 2500, 2500])
        got = np.concatenate([cache.feed(p) for p in parts])
        np.testing.assert_array_equal(
            got, miss_mask_assoc(addrs, 2048, 64, 4)
        )


class TestIntegration:
    def test_hierarchy_assoc_levels_match_oracle(self):
        cfg = HierarchyConfig(
            levels=(
                CacheConfig(name="L1", size=1024, line_size=32, associativity=2),
                CacheConfig(name="L2", size=8192, line_size=64, associativity=4),
            )
        )
        rng = np.random.default_rng(7)
        addrs = rng.integers(0, 1 << 14, size=8000).astype(np.int64)
        chunk = LineChunk.from_addresses(addrs, cfg)
        result = StreamingHierarchy(cfg).feed_all([chunk]).result()
        l1_ref = miss_mask_assoc(addrs, 1024, 32, 2)
        assert result.levels[0].misses == int(l1_ref.sum())
        l2_ref = miss_mask_assoc(addrs[l1_ref], 8192, 64, 4)
        assert result.levels[1].misses == int(l2_ref.sum())

    def test_streaming_wrapper_counts(self):
        cache = StreamingAssocCache(1024, 32, 2)
        seq = SequentialAssocCache(1024, 32, 2)
        addrs = np.arange(0, 4096, 16, dtype=np.int64)
        np.testing.assert_array_equal(cache.feed(addrs), seq.feed(addrs))
        assert cache.accesses == seq.accesses == addrs.size
        assert cache.misses == seq.misses
        assert cache.num_sets == seq.num_sets == 16

    def test_streaming_invalid_geometry(self):
        with pytest.raises(SimulationError):
            StreamingAssocCache(100, 32, 2)
        with pytest.raises(SimulationError):
            SequentialAssocCache(100, 32, 2)


class TestPackedGroupSort:
    @pytest.mark.parametrize("m", [1, 1000, DEFAULT_CHUNK_REFS, DEFAULT_CHUNK_REFS + 1])
    @pytest.mark.parametrize("value_bits", [4, 20])
    def test_equals_a_stable_argsort(self, m, value_bits):
        """Within the cached vector's length (int32 keys at 4 value
        bits, int64 at 20) and past it, the grouping is a stable sort,
        and the cached vector stays intact."""
        values = np.random.default_rng(m).integers(0, 1 << value_bits, size=m)
        grouped, positions = assoc_vec.packed_group_sort(values, value_bits)
        order = np.argsort(values, kind="stable")
        np.testing.assert_array_equal(positions, order)
        np.testing.assert_array_equal(grouped, values[order])
        for index in assoc_vec._INDEX.values():
            np.testing.assert_array_equal(index, np.arange(index.size))
