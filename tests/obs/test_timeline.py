"""Windowed per-level telemetry: exactness, coalescing, counter tracks."""

from __future__ import annotations

import pickle

import pytest

from repro.obs.timeline import (
    DEFAULT_WINDOW_REFS,
    Timeline,
    emit_counter_tracks,
    get_timeline_window,
    set_timeline_window,
)
from repro.obs.tracer import NULL_TRACER, Tracer
from tests.conftest import timeline_totals


def tl(levels=("L1", "L2"), window=4, capacity=4):
    return Timeline(levels=levels, window_refs=window, capacity=capacity)


class TestRecording:
    def test_slices_within_one_window_merge_into_one_row(self):
        t = tl(window=8)
        t.record(0, 3, [(3, 1), (1, 0)], end_ns=10)
        t.record(3, 8, [(5, 2), (2, 1)], end_ns=20)
        rows = t.rows()
        assert len(rows) == 1
        start, end, end_ns, pairs = rows[0]
        assert (start, end, end_ns) == (0, 8, 20)
        assert pairs == [[8, 3], [3, 1]]

    def test_window_boundary_starts_a_new_row(self):
        t = tl(window=4)
        t.record(0, 4, [(4, 1), (1, 0)], end_ns=1)
        t.record(4, 8, [(4, 2), (2, 1)], end_ns=2)
        assert len(t.rows()) == 2

    def test_empty_slice_is_a_no_op(self):
        t = tl()
        t.record(5, 5, [(0, 0), (0, 0)])
        assert t.rows() == []

    def test_totals_sum_every_window(self):
        t = tl(window=4)
        t.record(0, 4, [(4, 1), (1, 0)], end_ns=1)
        t.record(4, 8, [(4, 2), (2, 1)], end_ns=2)
        assert timeline_totals(t) == [(8, 3), (3, 1)]

    def test_rows_are_copies_and_picklable(self):
        t = tl()
        t.record(0, 2, [(2, 1), (1, 0)], end_ns=1)
        rows = t.rows()
        rows[0][3][0][0] = 999
        assert timeline_totals(t) == [(2, 1), (1, 0)]
        assert pickle.loads(pickle.dumps(t.rows())) == t.rows()

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            Timeline(levels=("L1",), window_refs=0)
        with pytest.raises(ValueError):
            Timeline(levels=("L1",), capacity=1)


class TestCoalescing:
    def test_overflow_halves_rows_and_doubles_window(self):
        t = tl(levels=("L1",), window=2, capacity=4)
        for i in range(5):
            t.record(i * 2, (i + 1) * 2, [(2, 1)], end_ns=i)
        assert t.window_refs == 4
        assert len(t.rows()) <= 4

    def test_coalescing_preserves_totals_exactly(self):
        t = tl(levels=("L1", "L2"), window=2, capacity=4)
        for i in range(32):
            t.record(i * 2, (i + 1) * 2, [(2, 1), (1, i % 2)], end_ns=i)
        assert timeline_totals(t) == [(64, 32), (32, 16)]

    def test_coalesced_rows_stay_contiguous(self):
        t = tl(levels=("L1",), window=2, capacity=4)
        for i in range(16):
            t.record(i * 2, (i + 1) * 2, [(2, 0)], end_ns=i)
        rows = t.rows()
        for a, b in zip(rows, rows[1:]):
            assert a[1] == b[0], "coalesced rows must tile the stream"


class TestCounterTracks:
    def test_two_tracks_per_level_per_row(self):
        tracer = Tracer()
        t = tl(window=4)
        t.record(0, 4, [(4, 1), (1, 0)], end_ns=100)
        t.record(4, 8, [(4, 2), (2, 2)], end_ns=200)
        n = emit_counter_tracks(t.levels, t.rows(), tracer=tracer, tid=77)
        assert n == 8  # 2 rows x 2 levels x 2 tracks
        samples = tracer.counters()
        assert len(samples) == 8
        by_name = {s.name for s in samples}
        assert by_name == {
            "timeline.L1.miss_rate", "timeline.L1.refs",
            "timeline.L2.miss_rate", "timeline.L2.refs",
        }
        rates = [s for s in samples if s.name == "timeline.L2.miss_rate"]
        assert [s.values["miss_rate"] for s in rates] == [0.0, 1.0]
        assert all(s.tid == 77 for s in samples)
        assert [s.ts_ns for s in rates] == [100, 200]

    def test_disabled_tracer_emits_nothing(self):
        t = tl()
        t.record(0, 2, [(2, 1), (1, 0)])
        assert emit_counter_tracks(t.levels, t.rows(), tracer=NULL_TRACER) == 0

    def test_zero_access_window_rates_zero_not_nan(self):
        tracer = Tracer()
        emit_counter_tracks(("L1",), [[0, 4, 1, [[0, 0]]]], tracer=tracer)
        (rate,) = [s for s in tracer.counters()
                   if s.name == "timeline.L1.miss_rate"]
        assert rate.values["miss_rate"] == 0.0


class TestProcessDefault:
    def test_default_window(self):
        assert get_timeline_window() == DEFAULT_WINDOW_REFS

    def test_set_and_clamp(self):
        set_timeline_window(1024)
        assert get_timeline_window() == 1024
        set_timeline_window(-5)
        assert get_timeline_window() == 0
