"""Extension experiments: associativity and three-level claims."""

import pytest

from repro.experiments import ext_assoc, ext_three_level, ext_tlb


class TestAssociativity:
    """The claim table of ``ext_assoc``."""

    @pytest.fixture(scope="class")
    def result(self):
        return ext_assoc.measure_claim(quick=True, programs=["dot", "su2cor"])

    def test_padding_helps_associative_caches_too(self, result):
        """PAD chosen for direct-mapped still removes most misses on
        2/4-way caches (Section 1's claim, first half)."""
        for prog, r in result.rates.items():
            for assoc in (2, 4):
                assert r[("padded", assoc)] <= r[("orig", assoc)] + 1e-9

    def test_little_headroom_left(self, result):
        """Second half: after direct-mapped-targeted padding, a 4-way
        cache gains only a few points -- an associativity-aware pad could
        not do much better."""
        for prog in result.rates:
            r = result.rates[prog]
            assert 100 * (r[("padded", 1)] - r[("padded", 4)]) < 10.0

    def test_format(self, result):
        text = result.format()
        assert "2-way" in text and "dot" in text

    def test_assoc_hierarchy_geometry(self):
        h = ext_assoc.assoc_hierarchy(2)
        assert h.l1.associativity == 2
        assert h.l1.size == 16 * 1024  # same capacity, different mapping


class TestThreeLevel:
    @pytest.fixture(scope="class")
    def result(self):
        return ext_three_level.run(quick=True, programs=["dot", "jacobi"])

    def test_l1_pad_captures_most_benefit_at_all_levels(self, result):
        """The paper's headline finding survives a third level."""
        for prog, versions in result.rates.items():
            for lvl in range(3):
                orig = versions["orig"][lvl]
                l1 = versions["L1 Opt"][lvl]
                full = versions["all levels"][lvl]
                saved_l1 = orig - l1
                saved_full = orig - full
                assert saved_full <= saved_l1 + 0.02

    def test_multilvl_clears_every_level(self, result):
        for versions in result.rates.values():
            for lvl in range(3):
                assert versions["all levels"][lvl] <= versions["orig"][lvl] + 0.005

    def test_format(self, result):
        text = result.format()
        assert "L3 miss%" in text


class TestTLB:
    def test_tlb_config_geometry(self):
        cfg = ext_tlb.tlb_config(entries=64, page_size=8192)
        assert cfg.num_sets == 64
        assert cfg.line_size == 8192

    def test_quick_run_structure(self):
        result = ext_tlb.run(quick=True, versions=("Orig", "L1"))
        assert set(result.series) == {"Orig", "L1"}
        text = result.format()
        assert "TLB miss%" in text

    def test_untiled_thrashes_tlb_at_large_n(self):
        """At N=400 the untiled K-sweep touches ~157 pages per iteration
        against a 64-entry TLB, while an L1 tile's ~20 pages fit."""
        result = ext_tlb.run(sizes=[400], versions=("Orig", "L1"))
        (orig,), (l1,) = result.series["Orig"], result.series["L1"]
        assert orig[0] == l1[0] == 400
        assert orig[3] > l1[3]
