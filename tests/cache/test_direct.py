"""Vectorized direct-mapped simulator: exact behaviour on known traces."""

import numpy as np
import pytest

from repro.cache.direct import miss_mask_direct
from repro.errors import SimulationError


def naive_direct(addresses, size, line_size):
    """Reference implementation: replay one access at a time."""
    num_sets = size // line_size
    tags = {}
    miss = []
    for a in addresses:
        line = a // line_size
        s, t = line % num_sets, line // num_sets
        miss.append(tags.get(s) != t)
        tags[s] = t
    return np.array(miss, dtype=bool)


def misses(trace, size, line_size):
    return int(miss_mask_direct(trace, size, line_size).sum())


class TestBasics:
    def test_empty_trace(self):
        assert misses(np.array([], dtype=np.int64), 1024, 32) == 0

    def test_cold_miss_then_hit(self):
        trace = np.array([0, 0, 8, 31])
        mask = miss_mask_direct(trace, 1024, 32)
        assert mask.tolist() == [True, False, False, False]

    def test_line_boundary(self):
        trace = np.array([31, 32])
        assert miss_mask_direct(trace, 1024, 32).tolist() == [True, True]

    def test_pingpong_conflict(self):
        # Two addresses one cache size apart: same set, different tags.
        trace = np.array([0, 1024, 0, 1024, 0, 1024])
        assert misses(trace, 1024, 32) == 6

    def test_sequential_sweep_misses_once_per_line(self):
        trace = np.arange(0, 4096, 4)  # 4 KB, 4-byte stride
        assert misses(trace, 1024, 32) == 4096 // 32

    def test_fits_in_cache_second_sweep_hits(self):
        sweep = np.arange(0, 512, 8)
        trace = np.concatenate([sweep, sweep])
        assert misses(trace, 1024, 32) == 512 // 32

    def test_working_set_exceeds_cache(self):
        sweep = np.arange(0, 2048, 32)  # 2x the cache, one access per line
        trace = np.concatenate([sweep, sweep])
        assert misses(trace, 1024, 32) == trace.size  # all miss


class TestValidation:
    def test_negative_addresses_rejected(self):
        with pytest.raises(SimulationError):
            miss_mask_direct(np.array([-8, 0]), 1024, 32)

    def test_bad_geometry_rejected(self):
        with pytest.raises(SimulationError):
            miss_mask_direct(np.array([0]), 1000, 32)
        with pytest.raises(SimulationError):
            miss_mask_direct(np.array([0]), 0, 32)

    def test_2d_trace_rejected(self):
        with pytest.raises(SimulationError):
            miss_mask_direct(np.zeros((2, 2), dtype=np.int64), 1024, 32)


class TestAgainstNaive:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_traces_match_reference(self, seed):
        rng = np.random.default_rng(seed)
        trace = rng.integers(0, 8192, size=2000)
        got = miss_mask_direct(trace, 1024, 32)
        expected = naive_direct(trace, 1024, 32)
        np.testing.assert_array_equal(got, expected)

    def test_clustered_trace_matches_reference(self):
        rng = np.random.default_rng(42)
        base = rng.integers(0, 64, size=500) * 1024
        trace = base + rng.integers(0, 64, size=500)
        np.testing.assert_array_equal(
            miss_mask_direct(trace, 2048, 64), naive_direct(trace, 2048, 64)
        )
