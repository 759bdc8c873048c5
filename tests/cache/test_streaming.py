"""Streaming simulation must equal whole-trace simulation for any chunking."""

from unittest import mock

import numpy as np
import pytest

from repro.cache import CacheConfig, HierarchyConfig
from repro.cache.assoc_vec import LineStream
from repro.cache.config import LineChunk, line_geometry
from repro.cache.streaming import (
    StreamingAssocCache,
    StreamingDirectCache,
    StreamingHierarchy,
)
from repro.cache.direct import miss_mask_direct
from repro.cache.assoc import miss_mask_assoc, replay_hierarchy
from repro.errors import SimulationError
from repro.ir.loops import Loop
from repro.obs.metrics import get_metrics
from repro.obs.timeline import Timeline
from repro.trace.generator import program_line_chunks, program_trace_chunks
from repro import DataLayout, ProgramBuilder


def chunked(trace, sizes):
    out, i = [], 0
    for s in sizes:
        out.append(trace[i : i + s])
        i += s
    if i < trace.size:
        out.append(trace[i:])
    return out


def lined(config, chunks):
    """Address chunks as ``config``'s line chunks, every access kept."""
    return [LineChunk.from_addresses(c, config) for c in chunks]


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
        mono = StreamingHierarchy(config).feed_all(lined(config, [trace])).result()
        stream = StreamingHierarchy(config)
        stream.feed_all(lined(config, chunked(trace, [123] * 40)))
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
        stream = StreamingHierarchy(config).feed_all(
            lined(config, chunked(trace, [64] * 8))
        )
        assert stream.result() == mono

    @pytest.mark.parametrize("assoc", [1, 2])
    def test_a_timeline_feeds_each_level_once_per_chunk(self, assoc):
        """With a timeline whose windows split every chunk, each level
        is still fed once per chunk, and the rows sum to the result."""
        config = HierarchyConfig((
            CacheConfig(size=1024, line_size=32, associativity=assoc, name="L1"),
            CacheConfig(size=8192, line_size=64, name="L2"),
        ))
        prog, layout = _streams(768)
        chunks = list(program_line_chunks(prog, layout, config, 64))
        assert sum(c.dropped for c in chunks) > 0
        timeline = Timeline(levels=("L1", "L2"), window_refs=16, capacity=1 << 20)
        hier = StreamingHierarchy(config, timeline=timeline)
        l1, l2 = hier._levels
        with mock.patch.object(l1, "feed", wraps=l1.feed) as l1, \
                mock.patch.object(l2, "feed", wraps=l2.feed) as l2:
            result = hier.feed_all(chunks).result()
        assert l1.call_count == l2.call_count == len(chunks)
        rows = timeline.rows()
        assert len(rows) > len(chunks)
        assert [sum(r[3][i][0] for r in rows) for i in range(2)] == [
            lv.accesses for lv in result.levels]
        assert [sum(r[3][i][1] for r in rows) for i in range(2)] == [
            lv.misses for lv in result.levels]
        assert result == replay_hierarchy(config, program_trace_chunks(prog, layout))


def _two_level(l1_line=32, l2_line=64):
    return HierarchyConfig(
        levels=(
            CacheConfig(size=1024, line_size=l1_line, name="L1"),
            CacheConfig(size=8192, line_size=l2_line, name="L2"),
        )
    )


def _streams(gap: int, arrays: int = 2, outer: int = 4, inner: int = 64):
    """``outer`` runs of an ``inner``-iteration unit-stride loop over
    ``arrays`` arrays of ``gap`` bytes of doubles, back to back."""
    b = ProgramBuilder("streams")
    handles = [b.array(f"S{a}", (gap // 8,)) for a in range(arrays)]
    (i,) = b.vars("i")
    b.nest([Loop("j", 1, outer), Loop("i", 1, inner)],
           [b.use(reads=[h[i] for h in handles])])
    prog = b.build()
    layout = DataLayout.sequential(prog)
    bases = [layout.base(f"S{a}") for a in range(arrays)]
    assert all(y - x == gap for x, y in zip(bases, bases[1:]))
    return prog, layout


class TestMruElision:
    def _elided(self, config, prog, layout):
        counter = get_metrics().counter("cache.mru_elided")
        before = counter.value
        # A budget of one run: every piece is big enough to cut.
        chunks = program_line_chunks(prog, layout, config, 64)
        result = StreamingHierarchy(config).feed_all(chunks).result()
        assert result == replay_hierarchy(config, program_trace_chunks(prog, layout))
        return counter.value - before

    def test_unit_stride_stream_drops_same_line_repeats(self):
        """8-byte elements on 32-byte lines: 3 of every 4 accesses after
        a run's first repeat the previous iteration's line."""
        prog, layout = _streams(64 * 8, arrays=1)
        assert self._elided(_two_level(), prog, layout) == 4 * 48

    def test_columns_a_cache_size_apart_are_kept(self):
        """Two streams exactly one L1 apart evict each other every
        access: no repeat is a safe MRU hit."""
        prog, layout = _streams(1024)
        assert self._elided(_two_level(), prog, layout) == 0

    def test_padded_columns_drop_again(self):
        prog, layout = _streams(1024 + 32)
        assert self._elided(_two_level(), prog, layout) == 2 * 4 * 48

    def test_short_inner_loops_drop_by_their_row(self):
        """Runs of 3 iterations are shorter than twice the references;
        the nest's one row still proves the two streams apart."""
        prog, layout = _streams(64 * 8, outer=40, inner=3)
        assert self._elided(_two_level(), prog, layout) > 0

    def test_address_chunks_elide_nothing(self):
        trace = np.arange(0, 64 * 8 * 4, 8)
        counter = get_metrics().counter("cache.mru_elided")
        before = counter.value
        config = _two_level()
        result = StreamingHierarchy(config).feed_all(lined(config, [trace])).result()
        assert counter.value == before
        assert result == replay_hierarchy(config, [trace])

    def test_address_array_is_rejected(self):
        with pytest.raises(SimulationError):
            StreamingHierarchy(_two_level()).feed(np.arange(0, 256, 8))

    def test_chunk_cut_for_another_geometry_is_rejected(self):
        chunk = LineChunk(np.zeros(4, dtype=np.int32), 4,
                          line_geometry(_two_level(l1_line=16)))
        with pytest.raises(SimulationError):
            StreamingHierarchy(_two_level()).feed(chunk)


class TestLineStream:
    @pytest.mark.parametrize("make", [
        lambda: StreamingDirectCache(768, 48),
        lambda: StreamingAssocCache(768, 48, 2),
    ])
    def test_lines_in_gcd_units_match_addresses(self, make):
        """A level fed line numbers in units dividing its line size
        classifies exactly as when fed the addresses, and counts the
        stream's known hits as accesses."""
        trace = np.random.default_rng(5).integers(0, 1 << 15, size=2000)
        plain, lined = make(), make()
        expected = plain.feed(trace)
        np.testing.assert_array_equal(lined.feed(LineStream(trace // 16, 16, 5)), expected)
        assert (lined.accesses, lined.misses) == (plain.accesses + 5, plain.misses)
        assert lined.feed(LineStream(trace[:10] // 16, 16, mask=False)) is None

    def test_non_multiple_line_sizes_in_a_hierarchy(self):
        config = HierarchyConfig(
            levels=(
                CacheConfig(size=768, line_size=32, name="L1"),
                CacheConfig(size=768 * 6, line_size=48, name="L2"),
            )
        )
        rng = np.random.default_rng(9)
        trace = rng.integers(0, 1 << 16, size=3000)
        stream = StreamingHierarchy(config).feed_all(
            lined(config, chunked(trace, [250] * 12))
        )
        assert stream.result() == replay_hierarchy(config, [trace])
