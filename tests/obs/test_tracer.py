"""Tracer correctness: nesting, threads, exports, and the no-op default."""

from __future__ import annotations

import json
import threading

import pytest

from repro.obs.report import aggregate_spans
from tests.obs.conftest import load_trace
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    get_tracer,
    set_tracer,
    start_tracing,
    stop_tracing,
)


class TestNesting:
    def test_child_parents_under_enclosing_span(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner"):
                pass
        inner, outer_done = tracer.spans()
        assert inner.name == "inner"
        assert inner.parent_id == outer.span_id
        assert outer_done.parent_id is None

    def test_siblings_share_a_parent(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        a, b, _ = tracer.spans()
        assert a.parent_id == b.parent_id == outer.span_id

    def test_event_parents_under_current_span(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            tracer.event("hit", key="abc")
        event, _ = tracer.spans()
        assert event.dur_ns is None
        assert event.parent_id == outer.span_id
        assert event.args == {"key": "abc"}

    def test_set_attaches_attributes_mid_span(self):
        tracer = Tracer()
        with tracer.span("s", cat="c", n=1) as sp:
            sp.set(found=7)
        (span,) = tracer.spans()
        assert span.args == {"n": 1, "found": 7}
        assert span.cat == "c"

    def test_exception_records_error_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("x")
        (span,) = tracer.spans()
        assert span.args["error"] == "ValueError"

    def test_add_span_parents_under_live_span_with_custom_tid(self):
        tracer = Tracer()
        with tracer.span("sweep") as sweep:
            tracer.add_span("job", start_ns=123, dur_ns=456, tid=999, key="k")
        job, _ = tracer.spans()
        assert job.parent_id == sweep.span_id
        assert (job.start_ns, job.dur_ns, job.tid) == (123, 456, 999)
        assert job.args == {"key": "k"}


class TestThreads:
    def test_nesting_is_per_thread(self):
        tracer = Tracer()
        done = threading.Event()

        def worker():
            with tracer.span("thread-span"):
                pass
            done.set()

        with tracer.span("main-span"):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        assert done.is_set()
        by_name = {s.name: s for s in tracer.spans()}
        # The other thread's span must NOT parent under main's live span.
        assert by_name["thread-span"].parent_id is None
        assert by_name["thread-span"].tid != by_name["main-span"].tid


class TestExports:
    def _record(self, tracer):
        with tracer.span("outer", cat="t", n=2):
            with tracer.span("inner", cat="t"):
                pass
            tracer.event("mark", cat="t")

    def test_jsonl_round_trip(self, tmp_path):
        tracer = Tracer()
        self._record(tracer)
        path = tmp_path / "t.jsonl"
        tracer.write_jsonl(path, metrics={"counters": {"x": 1}})
        spans, metrics = load_trace(path)
        assert [s["name"] for s in spans] == ["inner", "outer"]
        assert metrics == {"counters": {"x": 1}}
        # Every line is standalone JSON.
        for line in path.read_text().splitlines():
            json.loads(line)

    def test_chrome_round_trips_through_json_load(self, tmp_path):
        tracer = Tracer()
        self._record(tracer)
        path = tmp_path / "t.json"
        tracer.write(path, metrics={"counters": {"x": 1}})
        doc = json.load(open(path))
        assert doc["displayTimeUnit"] == "ms"
        phases = sorted(e["ph"] for e in doc["traceEvents"])
        assert phases == ["X", "X", "i"]
        spans, metrics = load_trace(path)
        assert {s["name"] for s in spans} == {"inner", "outer"}
        assert metrics == {"counters": {"x": 1}}

    def test_both_formats_agree_on_aggregation(self, tmp_path):
        tracer = Tracer()
        self._record(tracer)
        tracer.write(tmp_path / "t.jsonl")
        tracer.write(tmp_path / "t.json")
        agg_a = aggregate_spans(load_trace(tmp_path / "t.jsonl")[0])
        agg_b = aggregate_spans(load_trace(tmp_path / "t.json")[0])
        assert [(a.name, a.count) for a in agg_a] == [
            (b.name, b.count) for b in agg_b
        ]

    def test_format_follows_the_suffix(self, tmp_path):
        """``*.json`` is a Chrome trace-event document; any other suffix
        (or none) is JSON lines."""
        tracer = Tracer()
        self._record(tracer)
        tracer.write(tmp_path / "t.json")
        assert "traceEvents" in json.load(open(tmp_path / "t.json"))
        for name in ("t", "t.jsonl", "t.json.gz", "t.trace"):
            tracer.write(tmp_path / name)
            rows = [json.loads(line) for line in (tmp_path / name).read_text().splitlines()]
            assert {r["name"] for r in rows if r.get("type") == "span"} == {"inner", "outer"}


class TestSelfTime:
    def test_container_span_has_near_zero_self_time(self):
        tracer = Tracer()
        with tracer.span("parent"):
            with tracer.span("child"):
                pass
        aggs = {a.name: a for a in aggregate_spans(
            [s.to_json() for s in tracer.spans()]
        )}
        parent, child = aggs["parent"], aggs["child"]
        assert child.self_s == pytest.approx(child.total_s)
        assert parent.self_s == pytest.approx(
            parent.total_s - child.total_s, abs=1e-9
        )


class TestCounters:
    def test_counter_samples_record_values_and_placement(self):
        tracer = Tracer()
        tracer.counter("q.depth", ts_ns=5, cat="svc", pid=7, tid=9, depth=3)
        tracer.counter("q.depth", depth=4)
        first, second = tracer.counters()
        assert (first.ts_ns, first.pid, first.tid) == (5, 7, 9)
        assert first.values == {"depth": 3}
        assert second.values == {"depth": 4}
        assert second.ts_ns > 5  # defaulted to now

    def test_jsonl_export_carries_counter_rows(self, tmp_path):
        tracer = Tracer()
        tracer.counter("rate", ts_ns=1, miss_rate=0.5)
        path = tmp_path / "t.jsonl"
        tracer.write_jsonl(path)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        (row,) = [r for r in rows if r["type"] == "counter"]
        assert row["name"] == "rate" and row["values"] == {"miss_rate": 0.5}

    def test_chrome_export_uses_ph_c(self, tmp_path):
        tracer = Tracer()
        tracer.counter("rate", ts_ns=2000, miss_rate=0.25)
        path = tmp_path / "t.json"
        tracer.write_chrome(path)
        (event,) = json.load(open(path))["traceEvents"]
        assert event["ph"] == "C"
        assert event["ts"] == 2.0  # microseconds
        assert event["args"] == {"miss_rate": 0.25}


class TestOpenSpans:
    def test_unclosed_span_exports_without_duration(self, tmp_path):
        tracer = Tracer()
        active = tracer.span("stuck", cat="svc", key="k")
        active.__enter__()  # never exited: simulates a SIGTERM'd worker
        (span,) = tracer.open_spans()
        assert span.name == "stuck" and span.dur_ns is None
        assert tracer.spans() == []  # not a completed span
        path = tmp_path / "t.jsonl"
        tracer.write_jsonl(path)
        (row,) = [json.loads(l) for l in path.read_text().splitlines()]
        assert row["open"] is True and row["type"] == "span"
        assert "dur_ns" not in row

    def test_open_span_keeps_owning_thread_tid(self):
        tracer = Tracer()
        entered = threading.Event()

        def worker():
            tracer.span("lost").__enter__()
            entered.set()

        t = threading.Thread(target=worker)
        t.start()
        t.join()
        assert entered.is_set()
        (span,) = tracer.open_spans()
        assert span.tid != threading.get_ident()

    def test_open_span_becomes_chrome_begin_event(self, tmp_path):
        tracer = Tracer()
        tracer.span("stuck").__enter__()
        path = tmp_path / "t.json"
        tracer.write_chrome(path)
        (event,) = json.load(open(path))["traceEvents"]
        assert event["ph"] == "B"

    def test_closing_removes_from_open_registry(self):
        tracer = Tracer()
        with tracer.span("fine"):
            assert len(tracer.open_spans()) == 1
        assert tracer.open_spans() == []


class TestScopes:
    def test_scope_reparents_and_stamps_context(self):
        tracer = Tracer()
        root = tracer.new_span_id()
        with tracer.scope(parent_id=root, trace_id="abc"):
            with tracer.span("child"):
                pass
            tracer.event("mark")
        child, mark = tracer.spans()
        assert child.parent_id == root
        assert child.args["trace_id"] == "abc"
        assert mark.args["trace_id"] == "abc"
        # Outside the scope nothing leaks.
        tracer.event("after")
        assert tracer.spans()[-1].args == {}

    def test_scope_runs_in_another_thread(self):
        tracer = Tracer()
        root = tracer.new_span_id()

        def worker():
            with tracer.scope(parent_id=root, trace_id="xyz"):
                with tracer.span("pipeline"):
                    pass

        t = threading.Thread(target=worker)
        t.start()
        t.join()
        (span,) = tracer.spans()
        assert span.parent_id == root and span.args["trace_id"] == "xyz"

    def test_nested_scopes_shadow_outer_keys(self):
        tracer = Tracer()
        with tracer.scope(trace_id="outer", shared="s"):
            with tracer.scope(trace_id="inner"):
                tracer.event("e")
            tracer.event("f")
        e, f = tracer.spans()
        assert e.args == {"trace_id": "inner", "shared": "s"}
        assert f.args == {"trace_id": "outer", "shared": "s"}

    def test_explicit_args_beat_scope_context(self):
        tracer = Tracer()
        with tracer.scope(trace_id="ambient"):
            tracer.event("e", trace_id="explicit")
        (e,) = tracer.spans()
        assert e.args["trace_id"] == "explicit"

    def test_reserved_root_recorded_after_children(self):
        tracer = Tracer()
        root = tracer.new_span_id()
        with tracer.scope(parent_id=root):
            tracer.add_span("child", start_ns=10, dur_ns=5)
        got = tracer.add_span("root", start_ns=0, dur_ns=100, span_id=root)
        assert got == root
        child, root_span = tracer.spans()
        assert child.parent_id == root and root_span.span_id == root
        # Ids never collide with the reservation.
        assert tracer.new_span_id() > root


class TestNullTracer:
    def test_default_tracer_is_disabled(self):
        assert get_tracer() is NULL_TRACER
        assert get_tracer().enabled is False

    def test_span_returns_shared_singleton(self):
        a = NULL_TRACER.span("x", cat="c", big=list(range(10)))
        b = NULL_TRACER.span("y")
        assert a is b  # no allocation per instrumentation site
        with a as sp:
            assert sp.set(anything=1) is sp
        NULL_TRACER.event("e")
        NULL_TRACER.add_span("s", start_ns=0, dur_ns=1)
        NULL_TRACER.counter("c", value=1)
        with NULL_TRACER.scope(parent_id=None, trace_id="x"):
            pass
        assert NULL_TRACER.new_span_id() is None
        assert NULL_TRACER.spans() == []
        assert NULL_TRACER.counters() == []
        assert NULL_TRACER.open_spans() == []

    def test_start_stop_tracing_swaps_global(self):
        tracer = start_tracing()
        assert get_tracer() is tracer
        assert tracer.enabled is True
        previous = stop_tracing()
        assert previous is tracer
        assert isinstance(get_tracer(), NullTracer)

    def test_set_tracer_installs_and_restores(self):
        tracer = Tracer()
        set_tracer(tracer)
        assert get_tracer() is tracer
        set_tracer(NULL_TRACER)
        assert get_tracer() is NULL_TRACER
