"""Property tests: the line-stream hierarchy with L1 MRU elision vs the oracle.

:class:`~repro.cache.streaming.StreamingHierarchy` drops L1's
conflict-free MRU hits from segment-tagged chunks and hands each level
its predecessor's misses as line numbers in units of the gcd of the line
sizes.  Neither may change a single count: per-level totals and windowed
timeline rows must equal the sequential LRU oracle's
(:func:`repro.cache.assoc.replay_hierarchy`, and the same sequential
caches fed window by window) on random affine programs -- triangular,
tiled and negative-step nests, padded layouts -- for direct-mapped and
k-way L1s, L2 line sizes equal to, a multiple of and not a multiple of
L1's, and any chunk budget.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DataLayout, ProgramBuilder
from repro.cache.assoc import SequentialAssocCache, replay_hierarchy
from repro.cache.config import CacheConfig, HierarchyConfig, segment_shape
from repro.cache.streaming import StreamingHierarchy
from repro.ir.affine import var
from repro.ir.loops import Loop
from repro.obs.metrics import get_metrics
from repro.obs.timeline import Timeline
from repro.trace.generator import program_trace_chunks
from tests.properties.test_property_trace import random_nest_loops, random_program


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
        layout = _layout(prog, origin, pad)
        chunks = list(program_trace_chunks(prog, layout, budget))
        elided = get_metrics().counter("cache.mru_elided")
        before = elided.value
        result = StreamingHierarchy(config).feed_all(chunks).result()
        assert result == replay_hierarchy(config, chunks)
        l1 = result.levels[0]
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
        layout = _layout(prog, origin, pad)
        chunks = list(program_trace_chunks(prog, layout, budget))
        trace = (np.concatenate(chunks) if chunks
                 else np.empty(0, dtype=np.int64))
        timeline = Timeline(
            levels=[c.name for c in config], window_refs=window, capacity=1 << 30
        )
        result = StreamingHierarchy(config, timeline=timeline).feed_all(chunks).result()
        assert result == replay_hierarchy(config, chunks)
        assert [[r[0], r[1], r[3]] for r in timeline.rows()] == _oracle_rows(
            config, trace, window
        )


class TestSegmentTags:
    @given(prog=programs, budget=st.integers(1, 400), origin=origins)
    @settings(max_examples=80, deadline=None)
    def test_tagged_segments_are_affine(self, prog, budget, origin):
        """Every column of every tagged segment moves by a constant
        stride -- the premise of the endpoint interval test."""
        layout = DataLayout.sequential(prog, origin=origin)
        for chunk in program_trace_chunks(prog, layout, budget):
            shape = segment_shape(chunk)
            if shape is not None:
                n, refs = shape
                x = np.asarray(chunk).reshape(-1, n, refs)
                assert not np.diff(x, 2, axis=1).any()
