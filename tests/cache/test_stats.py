"""Statistics containers."""

import pytest

from repro.cache.stats import LevelStats, SimulationResult
from repro.cache.config import ultrasparc_i


class TestLevelStats:
    def test_misses_cannot_exceed_accesses(self):
        with pytest.raises(ValueError):
            LevelStats(name="L1", accesses=5, misses=6)

    def test_negative_counters_rejected(self):
        with pytest.raises(ValueError):
            LevelStats(name="L1", accesses=-1, misses=0)


class TestSimulationResult:
    def make(self):
        return SimulationResult(
            total_refs=1000,
            levels=(
                LevelStats(name="L1", accesses=1000, misses=200),
                LevelStats(name="L2", accesses=200, misses=50),
            ),
        )

    def test_miss_rates_use_total_refs(self):
        r = self.make()
        assert r.miss_rate("L1") == 0.2
        assert r.miss_rate("L2") == 0.05  # 50/1000, NOT 50/200

    def test_memory_refs_is_last_level_misses(self):
        assert self.make().memory_refs == 50

    def test_unknown_level_raises(self):
        with pytest.raises(KeyError):
            self.make().miss_rate("L3")

    def test_summary_mentions_all_levels(self):
        s = self.make().summary()
        assert "L1" in s and "L2" in s and "refs=1000" in s

    def test_needs_at_least_one_level(self):
        with pytest.raises(ValueError):
            SimulationResult(total_refs=0, levels=())

    def test_cycles_with_hierarchy(self):
        r = self.make()
        h = ultrasparc_i()
        expected = 1000 * 1.0 + 200 * 6.0 + 50 * 50.0
        assert r.cycles(h) == pytest.approx(expected)
