"""Set-associative LRU simulator."""

import numpy as np
import pytest

from repro.cache.assoc import SequentialAssocCache, miss_mask_assoc
from repro.cache.direct import miss_mask_direct
from repro.cache.streaming import StreamingAssocCache, StreamingDirectCache
from repro.errors import SimulationError

# Every simulator core, built on a 1024-byte cache of 32-byte lines; all
# of them share one input check.
CORES = {
    "direct": lambda: StreamingDirectCache(1024, 32),
    "assoc_vec": lambda: StreamingAssocCache(1024, 32, 2),
    "oracle": lambda: SequentialAssocCache(1024, 32, 2),
}


def misses(trace, size, line_size, associativity):
    return int(miss_mask_assoc(trace, size, line_size, associativity).sum())


class TestLRUSemantics:
    def test_assoc1_equals_direct_mapped(self):
        rng = np.random.default_rng(7)
        trace = rng.integers(0, 16384, size=3000)
        np.testing.assert_array_equal(
            miss_mask_assoc(trace, 2048, 32, 1),
            miss_mask_direct(trace, 2048, 32),
        )

    def test_two_way_survives_pingpong(self):
        # A direct-mapped killer: two lines one cache apart.
        trace = np.array([0, 1024, 0, 1024, 0, 1024])
        assert misses(trace, 1024, 32, 2) == 2  # both cold, then hits

    def test_lru_evicts_least_recent(self):
        # Fully associative 2-entry cache of 32B lines.
        a, b, c = 0, 32, 64
        trace = np.array([a, b, c, a])  # c evicts a (LRU), so a misses again
        assert miss_mask_assoc(trace, 64, 32, 2).tolist() == [True, True, True, True]

    def test_lru_touch_refreshes(self):
        a, b, c = 0, 32, 64
        trace = np.array([a, b, a, c, a])  # b is LRU when c arrives
        mask = miss_mask_assoc(trace, 64, 32, 2)
        assert mask.tolist() == [True, True, False, True, False]

    def test_fully_associative_capacity(self):
        # 4-line fully associative cache; working set of 4 lines loops cleanly.
        sweep = np.array([0, 32, 64, 96])
        trace = np.concatenate([sweep, sweep, sweep])
        assert misses(trace, 128, 32, 4) == 4

    def test_empty_trace(self):
        assert misses(np.array([], dtype=np.int64), 1024, 32, 2) == 0


class TestValidation:
    def test_geometry_must_divide(self):
        with pytest.raises(SimulationError):
            miss_mask_assoc(np.array([0]), 1024, 32, 3)

    @pytest.mark.parametrize("core", CORES)
    def test_negative_address_rejected(self, core):
        with pytest.raises(SimulationError, match="negative"):
            CORES[core]().feed(np.array([0, -1]))

    @pytest.mark.parametrize("core", CORES)
    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_2d_trace_rejected(self, core, dtype):
        with pytest.raises(SimulationError, match="1-D"):
            CORES[core]().feed(np.zeros((2, 2), dtype=dtype))

    @pytest.mark.parametrize("core", CORES)
    @pytest.mark.parametrize("trace", [
        np.array([1.7, 2.2]), np.array([True, False]), np.array(["12"]),
    ], ids=["float", "bool", "str"])
    def test_non_integer_trace_rejected(self, core, trace):
        with pytest.raises(SimulationError, match="integers"):
            CORES[core]().feed(trace)

    @pytest.mark.parametrize("core", CORES)
    @pytest.mark.parametrize("dtype", [np.float64, bool, str])
    def test_empty_trace_of_any_dtype_passes(self, core, dtype):
        cache = CORES[core]()
        cache.feed(np.array([], dtype=dtype))
        assert cache.accesses == 0


class TestPaperClaim:
    def test_padding_for_direct_mapped_helps_2way_too(self):
        """'Optimizations which avoid conflict misses on a direct-mapped
        cache certainly avoid conflicts in k-way associative caches.'"""
        # Three streams colliding in one set overwhelm even 2-way LRU...
        n = 64
        stride = 1024
        conflict = np.empty(3 * n, dtype=np.int64)
        conflict[0::3] = np.arange(n) * 8
        conflict[1::3] = stride + np.arange(n) * 8
        conflict[2::3] = 2 * stride + np.arange(n) * 8
        # ...while the padded version (distinct sets) mostly hits.
        padded = conflict.copy()
        padded[1::3] += 32
        padded[2::3] += 64
        m_conflict = misses(conflict, 1024, 32, 2)
        m_padded = misses(padded, 1024, 32, 2)
        assert m_padded < m_conflict
