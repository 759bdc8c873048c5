"""Reuse distances and the cold/capacity/conflict taxonomy."""

import numpy as np
import pytest

from repro.cache.config import CacheConfig
from repro.cache.stackdist import classify_misses, reuse_distances
from repro.errors import SimulationError


class TestReuseDistances:
    def test_known_sequence(self):
        # Lines: a b c a  ->  a's second access has distance 2 (b, c).
        trace = np.array([0, 32, 64, 0])
        d = reuse_distances(trace, 32)
        np.testing.assert_array_equal(d, [-1, -1, -1, 2])

    def test_immediate_reuse_distance_zero(self):
        trace = np.array([0, 8, 16])  # same 32B line throughout
        d = reuse_distances(trace, 32)
        np.testing.assert_array_equal(d, [-1, 0, 0])

    def test_repeated_sweep(self):
        sweep = np.arange(0, 4 * 32, 32)
        d = reuse_distances(np.concatenate([sweep, sweep]), 32)
        np.testing.assert_array_equal(d[:4], [-1] * 4)
        np.testing.assert_array_equal(d[4:], [3, 3, 3, 3])

    def test_empty(self):
        assert reuse_distances(np.array([], dtype=np.int64), 32).size == 0

    def test_invalid_line(self):
        with pytest.raises(SimulationError):
            reuse_distances(np.array([0]), 0)

    def test_naive_cross_check(self):
        rng = np.random.default_rng(4)
        trace = rng.integers(0, 2048, size=400)
        d = reuse_distances(trace, 32)
        lines = trace // 32
        stack: list = []
        for i, line in enumerate(lines.tolist()):
            if line in stack:
                pos = stack.index(line)
                assert d[i] == pos
                stack.pop(pos)
            else:
                assert d[i] == -1
            stack.insert(0, line)


class TestFullyAssociative:
    def test_matches_lru_simulator(self):
        from repro.cache.assoc import miss_mask_assoc

        rng = np.random.default_rng(8)
        trace = rng.integers(0, 8192, size=500)
        size, line = 1024, 32
        d = reuse_distances(trace, line)
        fa = (d < 0) | (d >= size // line)
        lru = miss_mask_assoc(trace, size, line, size // line)
        np.testing.assert_array_equal(fa, lru)


class TestTaxonomy:
    CACHE = CacheConfig(size=1024, line_size=32, name="L1")

    def test_pure_streaming_is_all_cold(self):
        trace = np.arange(0, 512, 32)
        t = classify_misses(trace, self.CACHE)
        assert (t.cold, t.capacity, t.conflict) == (16, 0, 0)

    def test_pingpong_is_conflict(self):
        trace = np.array([0, 1024] * 50)
        t = classify_misses(trace, self.CACHE)
        assert t.cold == 2
        assert t.capacity == 0
        assert t.conflict == 98

    def test_oversized_sweep_is_capacity(self):
        sweep = np.arange(0, 2048, 32)  # 2x cache
        t = classify_misses(np.concatenate([sweep, sweep]), self.CACHE)
        assert t.cold == 64
        assert t.capacity == 64
        assert t.conflict == 0

    def test_totals_consistent(self):
        from repro.cache.direct import miss_mask_direct

        rng = np.random.default_rng(11)
        trace = rng.integers(0, 4096, size=800)
        t = classify_misses(trace, self.CACHE)
        assert t.cold + t.capacity + t.conflict == miss_mask_direct(trace, 1024, 32).sum()

    def test_padding_removes_only_conflicts(self):
        """The paper's premise: inter-variable padding attacks conflict
        misses specifically, leaving cold and capacity misses alone."""
        from repro import DataLayout, ProgramBuilder
        from repro.trace.generator import generate_trace
        from repro.transforms.pad import pad

        b = ProgramBuilder("p")
        n = 2048  # 16 KB vectors on a 16 KB cache
        X = b.array("X", (n,))
        Y = b.array("Y", (n,))
        (i,) = b.vars("i")
        b.nest([b.loop(i, 1, n)], [b.use(reads=[X[i], Y[i]], flops=1)])
        prog = b.build()
        cache = CacheConfig(size=16 * 1024, line_size=32, name="L1")
        seq = DataLayout.sequential(prog)
        padded = pad(prog, seq, cache.size, cache.line_size)
        before = classify_misses(generate_trace(prog, seq), cache)
        after = classify_misses(generate_trace(prog, padded), cache)
        assert before.conflict > 0
        assert after.conflict == 0
        assert after.cold == before.cold
        assert after.capacity == before.capacity

    def test_rate_and_str(self):
        t = classify_misses(np.array([0, 1024, 0]), self.CACHE)
        assert t.rate("conflict") == pytest.approx(1 / 3)
        assert "conflict" in str(t)
