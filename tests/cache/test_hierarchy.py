"""Multi-level hierarchy simulation semantics."""

import numpy as np
import pytest

from repro.cache import CacheConfig, HierarchyConfig, StreamingHierarchy, ultrasparc_i
from repro.cache.config import LineChunk


def simulate(config, trace):
    """A one-shot run: the whole trace as a single chunk."""
    chunk = LineChunk.from_addresses(trace, config)
    return StreamingHierarchy(config).feed_all([chunk]).result()


@pytest.fixture
def tiny_hier():
    return HierarchyConfig(
        levels=(
            CacheConfig(size=1024, line_size=32, name="L1", hit_cycles=1),
            CacheConfig(size=4096, line_size=64, name="L2", hit_cycles=5),
        ),
        memory_cycles=50,
    )


class TestFiltering:
    def test_l2_sees_only_l1_misses(self, tiny_hier):
        trace = np.arange(0, 2048, 8)  # 2 KB sweep, 8B stride
        result = simulate(tiny_hier, trace)
        l1, l2 = result.levels
        assert l1.accesses == trace.size
        assert l2.accesses == l1.misses
        # L1 misses once per 32B line; L2 once per 64B line.
        assert l1.misses == 2048 // 32
        assert l2.misses == 2048 // 64

    def test_miss_rates_normalized_to_total_refs(self, tiny_hier):
        """Section 6.1: 'L2 misses are normalized to L1 misses', i.e. both
        rates use the total reference count as the denominator."""
        trace = np.arange(0, 2048, 8)
        result = simulate(tiny_hier, trace)
        assert result.miss_rate("L1") == pytest.approx(64 / 256)
        assert result.miss_rate("L2") == pytest.approx(32 / 256)

    def test_repeat_sweep_fits_l2_not_l1(self, tiny_hier):
        sweep = np.arange(0, 2048, 32)  # 2 KB: exceeds L1, fits L2
        trace = np.concatenate([sweep, sweep])
        result = simulate(tiny_hier, trace)
        # Second sweep misses L1 again but hits L2 everywhere.
        assert result.level("L1").misses == trace.size
        assert result.level("L2").misses == 2048 // 64

    def test_empty_trace(self, tiny_hier):
        result = simulate(tiny_hier, np.array([], dtype=np.int64))
        assert result.total_refs == 0
        assert result.miss_rate("L1") == 0.0


class TestCycles:
    def test_cycle_model_additive(self, tiny_hier):
        result = simulate(tiny_hier, np.arange(0, 2048, 8))
        expected = (
            result.total_refs * 1
            + result.level("L1").misses * 5
            + result.level("L2").misses * 50
        )
        assert result.cycles(tiny_hier) == pytest.approx(expected)

    def test_ultrasparc_docstring_example(self):
        result = simulate(ultrasparc_i(), np.arange(0, 1 << 16, 4))
        assert round(result.miss_rate("L1"), 3) == 0.125
