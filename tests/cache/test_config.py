"""Cache and hierarchy configuration validation."""

import pytest

from repro.cache.config import CacheConfig, HierarchyConfig, alpha_21164, ultrasparc_i
from repro.errors import ConfigError


class TestCacheConfig:
    def test_basic_geometry(self):
        c = CacheConfig(size=16 * 1024, line_size=32, name="L1")
        assert c.num_lines == 512
        assert c.num_sets == 512
        assert c.is_direct_mapped

    def test_associative_sets(self):
        c = CacheConfig(size=16 * 1024, line_size=32, associativity=4)
        assert c.num_sets == 128
        assert c.num_lines == 512
        assert not c.is_direct_mapped

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(size=0, line_size=32),
            dict(size=-16, line_size=32),
            dict(size=1024, line_size=0),
            dict(size=1024, line_size=-4),
            dict(size=1024, line_size=32, associativity=0),
            dict(size=1000, line_size=32),  # size not multiple of line
            dict(size=1024, line_size=32, associativity=3),  # 1024 % 96 != 0
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            CacheConfig(**kwargs)


class TestHierarchyConfig:
    def test_ultrasparc_preset_matches_paper(self):
        h = ultrasparc_i()
        assert h.l1.size == 16 * 1024
        assert h.l1.line_size == 32
        assert h.l2.size == 512 * 1024
        assert h.l2.line_size == 64
        assert h.l1.is_direct_mapped and h.l2.is_direct_mapped
        assert h.max_line_size == 64

    def test_alpha_preset_three_levels(self):
        h = alpha_21164()
        assert len(h) == 3
        sizes = [c.size for c in h]
        assert sizes == sorted(sizes)

    def test_division_property_enforced(self):
        with pytest.raises(ConfigError):
            HierarchyConfig(
                levels=(
                    CacheConfig(size=16 * 1024, line_size=32),
                    CacheConfig(size=24 * 1024, line_size=32),  # not a multiple
                )
            )

    def test_l2_must_be_larger(self):
        with pytest.raises(ConfigError):
            HierarchyConfig(
                levels=(
                    CacheConfig(size=16 * 1024, line_size=32),
                    CacheConfig(size=16 * 1024, line_size=64),
                )
            )

    def test_line_sizes_must_not_shrink(self):
        with pytest.raises(ConfigError):
            HierarchyConfig(
                levels=(
                    CacheConfig(size=16 * 1024, line_size=64),
                    CacheConfig(size=64 * 1024, line_size=32),
                )
            )

    def test_empty_hierarchy_rejected(self):
        with pytest.raises(ConfigError):
            HierarchyConfig(levels=())

    def test_multilevel_pad_config_is_s1_lmax(self):
        cfg = ultrasparc_i().multilevel_pad_config()
        assert cfg.size == 16 * 1024  # S1
        assert cfg.line_size == 64  # Lmax (the L2 line)

    def test_multilevel_pad_config_same_lines_is_l1(self):
        h = ultrasparc_i(l2_line=32)
        cfg = h.multilevel_pad_config()
        assert (cfg.size, cfg.line_size) == (h.l1.size, h.l1.line_size)

    def test_miss_cycles_laddering(self):
        h = ultrasparc_i()
        assert h.miss_cycles(0) == h.l2.hit_cycles
        assert h.miss_cycles(1) == h.memory_cycles

    def test_l2_property_requires_two_levels(self):
        h = HierarchyConfig(levels=(CacheConfig(size=1024, line_size=32),))
        with pytest.raises(ConfigError):
            _ = h.l2
