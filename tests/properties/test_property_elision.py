"""Property tests: L1's kept line stream, cut at the trace source, vs the oracle.

:func:`~repro.trace.generator.program_line_chunks` never builds the
accesses it proves are conflict-free L1 MRU hits, and
:class:`~repro.cache.streaming.StreamingHierarchy` hands each level its
predecessor's misses as line numbers in units of the gcd of the line
sizes.  Neither may change a single count: per-level totals and windowed
timeline rows must equal the sequential LRU oracle's on the address
trace (:func:`repro.cache.assoc.replay_hierarchy`, and the same
sequential caches fed window by window) on random affine programs --
triangular, tiled and negative-step nests, padded layouts -- for
direct-mapped and k-way L1s, L2 line sizes equal to, a multiple of and
not a multiple of L1's, and any chunk budget.  And the dropped accesses
themselves must be what they claim: each an L1 hit on its set's
most-recently-used line, the kept lines exactly the rest of the trace.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DataLayout, ProgramBuilder
from repro.cache.assoc import SequentialAssocCache, replay_hierarchy
from repro.cache.config import CacheConfig, HierarchyConfig, LineChunk
from repro.cache.streaming import StreamingHierarchy
from repro.ir.affine import var
from repro.ir.loops import Loop
from repro.obs.metrics import get_metrics
from repro.obs.timeline import Timeline
from repro.trace import generator
from repro.trace.generator import generate_trace, program_line_chunks, program_trace_chunks
from tests.properties.test_property_trace import random_nest_loops, random_program
from tests.trace.test_generator import kept_positions, trace_slices


@st.composite
def hierarchies(draw) -> HierarchyConfig:
    """A small two-level hierarchy: L1 of 2-64 sets, direct-mapped or
    k-way; L2 lines equal to, twice, or 3/2 of L1's (not a multiple)."""
    line = draw(st.sampled_from([8, 16, 32]))
    k = draw(st.sampled_from([1, 1, 2, 4]))
    sets = draw(st.sampled_from([2, 4, 16, 64]))
    l1 = CacheConfig(size=line * k * sets, line_size=line, associativity=k, name="L1")
    l2_line = draw(st.sampled_from([line, 2 * line, line + line // 2]))
    l2_k = draw(st.sampled_from([1, 2]))
    # A multiple of L1's size that L2's line times ways divides.
    size = l1.size * l2_line * l2_k
    l2 = CacheConfig(size=size, line_size=l2_line, associativity=l2_k, name="L2")
    return HierarchyConfig((l1, l2))


@st.composite
def stencil_program(draw):
    """A 2-deep nest with long inner rows, the shape elision fires on:
    ``A(c * i + b, j + a)`` references (column-major, ``c`` in -1..2,
    so some columns stand still or run backwards), the inner loop 16-40
    trips, step +-1 or +-2, and sometimes triangular or tiled outer
    bounds."""
    rows, cols = draw(st.integers(2, 6)), draw(st.integers(16, 40))
    narrays = draw(st.integers(1, 3))
    b = ProgramBuilder("stencil")
    handles = [b.array(f"S{a}", (2 * cols + 8, rows + 4)) for a in range(narrays)]
    i, j = var("i"), var("j")
    refs = []
    for _ in range(draw(st.integers(1, 6))):
        h = handles[draw(st.integers(0, narrays - 1))]
        c = draw(st.sampled_from([1, 1, 0, -1, 2]))
        refs.append(h[c * i + draw(st.integers(2, 4)) + cols, j + draw(st.integers(0, 2))])
    outer = draw(random_nest_loops(2, (rows, cols)))[0]
    step = draw(st.sampled_from([1, 2, -1, -2]))
    inner = Loop("i", 1, cols, step) if step > 0 else Loop("i", cols, 1, step)
    b.nest([Loop("j", outer.lower, outer.upper, outer.step), inner],
           [b.use(reads=refs, flops=1)])
    return b.build()


programs = st.one_of(random_program(), stencil_program(), stencil_program())

# Random subscripts may reach below an array's start; a high origin keeps
# every address non-negative.  Its offset moves the arrays against lines.
origins = st.integers(0, 63).map(lambda k: (1 << 16) + 8 * k)


def _layout(prog, origin: int, pad: int) -> DataLayout:
    layout = DataLayout.sequential(prog, origin=origin)
    if pad and len(layout.order) > 1:
        layout = layout.add_pad(layout.order[-1], pad)
    return layout


def _oracle_rows(config: HierarchyConfig, trace: np.ndarray, window: int) -> list:
    """``[start, end, [[acc, miss], ...]]`` per window, from sequential
    LRU levels fed one window at a time."""
    caches = [
        SequentialAssocCache(c.size, c.line_size, c.associativity) for c in config
    ]
    rows = []
    for start in range(0, trace.size, window):
        stream = trace[start:start + window]
        pairs = []
        for cache in caches:
            acc, miss = cache.accesses, cache.misses
            mask = cache.feed(stream)
            pairs.append([cache.accesses - acc, cache.misses - miss])
            stream = stream[mask]
        rows.append([start, min(start + window, trace.size), pairs])
    return rows


def _chunks(prog, config, budget, origin, pad):
    """The program's line chunks for ``config`` and its address chunks."""
    layout = _layout(prog, origin, pad)
    return (
        list(program_line_chunks(prog, layout, config, budget)),
        list(program_trace_chunks(prog, layout, budget)),
    )


class TestElidedHierarchyEqualsOracle:
    @given(
        prog=programs,
        config=hierarchies(),
        budget=st.integers(1, 400),
        origin=origins,
        pad=st.integers(0, 96),
    )
    @settings(max_examples=120, deadline=None)
    def test_counts_equal_oracle(self, prog, config, budget, origin, pad):
        lined, plain = _chunks(prog, config, budget, origin, pad)
        elided = get_metrics().counter("cache.mru_elided")
        before = elided.value
        result = StreamingHierarchy(config).feed_all(lined).result()
        assert result == replay_hierarchy(config, plain)
        l1 = result.levels[0]
        assert elided.value - before == sum(c.dropped for c in lined)
        assert 0 <= elided.value - before <= l1.accesses - l1.misses

    @given(
        prog=programs,
        config=hierarchies(),
        budget=st.integers(1, 400),
        origin=origins,
        pad=st.integers(0, 96),
        window=st.integers(1, 64),
    )
    @settings(max_examples=80, deadline=None)
    def test_timeline_rows_equal_oracle(self, prog, config, budget, origin, pad,
                                        window):
        lined, plain = _chunks(prog, config, budget, origin, pad)
        trace = (np.concatenate(plain) if plain
                 else np.empty(0, dtype=np.int64))
        timeline = Timeline(
            levels=[c.name for c in config], window_refs=window, capacity=1 << 30
        )
        result = StreamingHierarchy(config, timeline=timeline).feed_all(lined).result()
        assert result == replay_hierarchy(config, plain)
        assert [[r[0], r[1], r[3]] for r in timeline.rows()] == _oracle_rows(
            config, trace, window
        )


class TestDroppedAccesses:
    @given(
        prog=programs,
        config=hierarchies(),
        budget=st.integers(1, 400),
        origin=origins,
        pad=st.integers(0, 96),
    )
    @settings(max_examples=80, deadline=None)
    def test_dropped_accesses_are_mru_hits_and_kept_lines_the_rest(
        self, prog, config, budget, origin, pad
    ):
        """Replayed one access at a time on the sequential L1, every
        access a chunk dropped hits, on the line its set used last; and
        each chunk's lines are the unit lines of the trace slice it
        stands for at its kept positions, which are strictly
        increasing."""
        layout = _layout(prog, origin, pad)
        lined = list(program_line_chunks(prog, layout, config, budget))
        l1 = config.levels[0]
        cache = SequentialAssocCache(l1.size, l1.line_size, l1.associativity)
        unit = lined[0].geometry[0] if lined else l1.line_size
        mru: dict[int, int] = {}
        for chunk, addresses in trace_slices(lined, generate_trace(prog, layout)):
            assert len(chunk) == addresses.size
            kept = kept_positions(chunk)
            assert (np.diff(kept) > 0).all() and kept.size == chunk.lines.size
            assert kept.size == 0 or 0 <= kept[0] <= kept[-1] < addresses.size
            np.testing.assert_array_equal(chunk.lines, addresses[kept] // unit)
            dropped = np.ones(addresses.size, dtype=bool)
            dropped[kept] = False
            miss = cache.feed(addresses)
            assert not miss[dropped].any()
            lines = (addresses // l1.line_size).tolist()
            for line, drop in zip(lines, dropped.tolist()):
                s = line % cache.num_sets
                if drop:
                    assert mru[s] == line
                mru[s] = line


class TestChunkBudget:
    def test_no_line_chunk_holds_more_than_the_budget(self):
        """Over drawn programs and budgets, no line chunk holds more
        lines than the budget, and the chunks tile the trace; over the
        draws, some piece is cut into several chunks."""
        several = []
        cut = generator._LineCutter.cut

        def counted(self, nest, seg):
            chunks = list(cut(self, nest, seg))
            several.append(len(chunks) > 1)
            return iter(chunks)

        @given(
            prog=programs,
            config=hierarchies(),
            budget=st.integers(1, 400),
            origin=origins,
            pad=st.integers(0, 96),
        )
        @settings(max_examples=60, deadline=None)
        def check(prog, config, budget, origin, pad):
            layout = _layout(prog, origin, pad)
            with mock.patch.object(generator._LineCutter, "cut", counted):
                lined = list(program_line_chunks(prog, layout, config, budget))
            assert all(chunk.lines.size <= budget for chunk in lined)
            trace_slices(lined, generate_trace(prog, layout))

        check()
        assert any(several)


class TestKeptBefore:
    @given(
        prog=programs,
        config=hierarchies(),
        budget=st.integers(1, 400),
        origin=origins,
        pad=st.integers(0, 96),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_counts_rise_by_at_most_one_per_reference(
        self, prog, config, budget, origin, pad, data
    ):
        """Over cut, plain and joined chunks, ``kept_before`` is 0 at 0
        and ``lines.size`` at ``refs``, and rises by at most 1 per
        reference; a joined chunk counts as its parts do, each shifted
        by the kept lines before it."""
        lined, plain = _chunks(prog, config, budget, origin, pad)
        a = data.draw(st.integers(0, len(lined)))
        b = data.draw(st.integers(a, len(lined)))
        parts = lined[a:b]
        joined = [LineChunk.join(parts)] if parts else []
        plained = [LineChunk.from_addresses(c, config) for c in plain]

        def counts(chunk):
            return np.array([chunk.kept_before(o) for o in range(len(chunk) + 1)])

        for chunk in lined + joined + plained:
            c = counts(chunk)
            assert c[0] == 0 and c[-1] == chunk.lines.size
            assert ((np.diff(c) == 0) | (np.diff(c) == 1)).all()
        if joined:
            shifted, kept = [np.zeros(1, dtype=np.int64)], 0
            for part in parts:
                shifted.append(counts(part)[1:] + kept)
                kept += part.lines.size
            np.testing.assert_array_equal(counts(joined[0]), np.concatenate(shifted))
