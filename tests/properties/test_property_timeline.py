"""Property tests: windowed telemetry sums bit-exactly to untimed totals.

The timeline partitions the reference stream into windows.  No matter how
the trace is chunked, what window size is chosen, or how often a tiny ring
capacity forces coalescing, the per-level sums over all windows must equal
the plain (timeline-free) simulation exactly -- same integers, not
approximately.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.config import CacheConfig, HierarchyConfig, LineChunk
from repro.cache.streaming import StreamingHierarchy
from repro.obs.timeline import Timeline
from tests.conftest import timeline_totals


def small_hierarchy() -> HierarchyConfig:
    return HierarchyConfig(
        (
            CacheConfig(size=64, line_size=8, name="L1"),
            CacheConfig(size=256, line_size=16, associativity=2, name="L2"),
        )
    )


def lined(config, chunks):
    """Address chunks as ``config``'s line chunks, every access kept."""
    return [LineChunk.from_addresses(c, config) for c in chunks]


@st.composite
def chunked_stream(draw):
    """A random address stream split into random-sized chunks."""
    n = draw(st.integers(min_value=0, max_value=300))
    addresses = draw(
        st.lists(st.integers(min_value=0, max_value=1024),
                 min_size=n, max_size=n)
    )
    chunks = []
    pos = 0
    while pos < n:
        take = draw(st.integers(min_value=1, max_value=n - pos))
        chunks.append(np.array(addresses[pos:pos + take], dtype=np.int64))
        pos += take
    return chunks


class TestWindowSums:
    @given(chunks=chunked_stream(), window=st.integers(1, 64))
    @settings(max_examples=60, deadline=None)
    def test_totals_match_untimed_run(self, chunks, window):
        config = small_hierarchy()
        timeline = Timeline(
            levels=[c.name for c in config], window_refs=window
        )
        timed = StreamingHierarchy(config, timeline=timeline).feed_all(lined(config, chunks))
        plain = StreamingHierarchy(config).feed_all(lined(config, chunks))
        assert timed.result() == plain.result()
        assert timeline_totals(timeline) == [
            (lv.accesses, lv.misses) for lv in plain.result().levels
        ]

    @given(chunks=chunked_stream(), window=st.integers(1, 16))
    @settings(max_examples=60, deadline=None)
    def test_coalescing_keeps_sums_exact(self, chunks, window):
        """A tiny ring forces repeated coalescing; sums must not drift."""
        config = small_hierarchy()
        timeline = Timeline(
            levels=[c.name for c in config], window_refs=window, capacity=4
        )
        timed = StreamingHierarchy(config, timeline=timeline).feed_all(lined(config, chunks))
        assert timeline_totals(timeline) == [
            (lv.accesses, lv.misses) for lv in timed.result().levels
        ]
        assert len(timeline.rows()) <= 4

    @given(chunks=chunked_stream(), window=st.integers(1, 64))
    @settings(max_examples=60, deadline=None)
    def test_rows_partition_the_reference_stream(self, chunks, window):
        config = small_hierarchy()
        timeline = Timeline(
            levels=[c.name for c in config], window_refs=window
        )
        timed = StreamingHierarchy(config, timeline=timeline).feed_all(lined(config, chunks))
        rows = timeline.rows()
        total = timed.result().total_refs
        if total == 0:
            assert rows == []
            return
        assert rows[0][0] == 0
        assert rows[-1][1] == total
        for a, b in zip(rows, rows[1:]):
            assert a[1] == b[0]

    @given(chunks=chunked_stream(), window=st.integers(1, 64),
           regroup=st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_chunking_does_not_move_window_boundaries(
        self, chunks, window, regroup
    ):
        """Two different chunkings of one stream: identical rows."""
        config = small_hierarchy()
        flat = (np.concatenate(chunks) if chunks
                else np.zeros(0, dtype=np.int64))
        rechunked = []
        pos = 0
        while pos < flat.size:
            take = regroup.randint(1, flat.size - pos)
            rechunked.append(flat[pos:pos + take])
            pos += take

        def run(split):
            t = Timeline(levels=[c.name for c in config], window_refs=window)
            StreamingHierarchy(config, timeline=t).feed_all(lined(config, split))
            return [(row[0], row[1], row[3]) for row in t.rows()]

        assert run(chunks) == run(rechunked)
