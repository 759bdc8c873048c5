"""Streaming simulation must equal whole-trace simulation for any chunking."""

import numpy as np
import pytest

from repro.cache import CacheConfig, HierarchyConfig
from repro.cache.streaming import (
    StreamingAssocCache,
    StreamingDirectCache,
    StreamingHierarchy,
)
from repro.cache.direct import miss_mask_direct
from repro.cache.assoc import miss_mask_assoc, replay_hierarchy
from repro.errors import SimulationError


def chunked(trace, sizes):
    out, i = [], 0
    for s in sizes:
        out.append(trace[i : i + s])
        i += s
    if i < trace.size:
        out.append(trace[i:])
    return out


class TestStreamingDirect:
    @pytest.mark.parametrize("chunks", [[1], [7, 13], [100], [1] * 50, [0, 5, 0, 9]])
    def test_any_chunking_matches_monolithic(self, chunks):
        rng = np.random.default_rng(11)
        trace = rng.integers(0, 16384, size=300)
        cache = StreamingDirectCache(2048, 32)
        parts = [cache.feed(c) for c in chunked(trace, chunks)]
        got = np.concatenate([p for p in parts if p.size])
        np.testing.assert_array_equal(got, miss_mask_direct(trace, 2048, 32))

    def test_state_carries_hits_across_chunks(self):
        cache = StreamingDirectCache(1024, 32)
        assert cache.feed(np.array([0])).tolist() == [True]
        assert cache.feed(np.array([0])).tolist() == [False]  # still resident

    def test_counters_accumulate(self):
        cache = StreamingDirectCache(1024, 32)
        cache.feed(np.array([0, 32, 0]))
        cache.feed(np.array([0]))
        assert cache.accesses == 4
        assert cache.misses == 2

    def test_invalid_geometry(self):
        with pytest.raises(SimulationError):
            StreamingDirectCache(1000, 32)


class TestStreamingAssoc:
    def test_matches_monolithic(self):
        rng = np.random.default_rng(3)
        trace = rng.integers(0, 8192, size=400)
        cache = StreamingAssocCache(1024, 32, 2)
        parts = [cache.feed(c) for c in chunked(trace, [50] * 8)]
        got = np.concatenate(parts)
        np.testing.assert_array_equal(got, miss_mask_assoc(trace, 1024, 32, 2))


class TestStreamingHierarchy:
    def test_chunked_matches_one_shot(self):
        config = HierarchyConfig(
            levels=(
                CacheConfig(size=1024, line_size=32, name="L1"),
                CacheConfig(size=4096, line_size=64, name="L2"),
            )
        )
        rng = np.random.default_rng(23)
        trace = rng.integers(0, 32768, size=5000)
        mono = StreamingHierarchy(config).feed_all([trace]).result()
        stream = StreamingHierarchy(config)
        stream.feed_all(chunked(trace, [123] * 40))
        assert stream.result() == mono
        # ...and both equal the sequential oracle's level chain.
        assert replay_hierarchy(config, [trace]) == mono

    def test_assoc_level_in_hierarchy(self):
        config = HierarchyConfig(
            levels=(
                CacheConfig(size=1024, line_size=32, name="L1", associativity=2),
                CacheConfig(size=4096, line_size=64, name="L2"),
            )
        )
        trace = np.arange(0, 8192, 16)
        mono = replay_hierarchy(config, [trace])
        stream = StreamingHierarchy(config).feed_all(chunked(trace, [64] * 8))
        assert stream.result() == mono
