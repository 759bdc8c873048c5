"""Report tolerance for open spans, percentile lines, and trace trees."""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry
from repro.obs.report import (
    aggregate_spans,
    format_report,
    format_trace_tree,
    load_trace_doc,
)
from repro.obs.tracer import Tracer


class TestOpenSpanTolerance:
    def _trace_with_open_span(self, path):
        tracer = Tracer()
        with tracer.span("done", cat="t"):
            pass
        tracer.span("stuck", cat="t").__enter__()  # never exits
        tracer.write_jsonl(path)
        return path

    def test_aggregation_counts_open_spans_with_zero_time(self, tmp_path):
        path = self._trace_with_open_span(tmp_path / "t.jsonl")
        doc = load_trace_doc(path)
        spans = [s for s in doc.spans if s.get("type") == "span"]
        aggs = {a.name: a for a in aggregate_spans(spans)}
        assert aggs["stuck"].count == 1
        assert aggs["stuck"].total_s == 0.0

    def test_report_appends_one_warning_line(self, tmp_path):
        path = self._trace_with_open_span(tmp_path / "t.jsonl")
        out = format_report(path)
        assert "1 open span(s) never completed (stuck)" in out
        assert "counted with zero duration" in out

    def test_report_without_open_spans_has_no_warning(self, tmp_path):
        tracer = Tracer()
        with tracer.span("done"):
            pass
        path = tmp_path / "t.jsonl"
        tracer.write_jsonl(path)
        assert "never completed" not in format_report(path)

    def test_open_spans_survive_both_formats(self, tmp_path):
        tracer = Tracer()
        tracer.span("stuck").__enter__()
        tracer.write_jsonl(tmp_path / "t.jsonl")
        tracer.write_chrome(tmp_path / "t.json")
        for name in ("t.jsonl", "t.json"):
            doc = load_trace_doc(tmp_path / name)
            (open_span,) = doc.open_spans()
            assert open_span["name"] == "stuck"


class TestPercentileLines:
    def test_histogram_percentiles_render(self, tmp_path):
        tracer = Tracer()
        with tracer.span("s"):
            pass
        m = MetricsRegistry()
        for v in range(100):
            m.histogram("exec.job_seconds").observe(v / 100.0)
        path = tmp_path / "t.jsonl"
        tracer.write_jsonl(path, metrics=m.snapshot())
        out = format_report(path)
        assert "exec.job_seconds: n=100 p50=" in out
        assert "p95=" in out and "p99=" in out

    def test_counter_track_summary_line(self, tmp_path):
        tracer = Tracer()
        with tracer.span("s"):
            pass
        tracer.counter("timeline.L1.miss_rate", ts_ns=1, miss_rate=0.5)
        tracer.counter("timeline.L1.miss_rate", ts_ns=2, miss_rate=0.25)
        path = tmp_path / "t.jsonl"
        tracer.write_jsonl(path)
        out = format_report(path)
        assert "counter timeline.L1.miss_rate: 2 samples, last miss_rate=0.25" in out


class TestTraceTree:
    def _request_trace(self, path):
        """A two-thread-shaped trace: root reserved, children scoped."""
        tracer = Tracer()
        root = tracer.new_span_id()
        with tracer.scope(parent_id=root, trace_id="req1"):
            tracer.add_span("service.queue_wait", start_ns=10, dur_ns=5)
            with tracer.span("service.tune"):
                tracer.add_span("exec.job", start_ns=20, dur_ns=3)
        tracer.add_span("http.request", start_ns=0, dur_ns=100,
                        span_id=root, trace_id="req1")
        # Unrelated noise that must not show under the request's tree.
        tracer.add_span("other.request", start_ns=0, dur_ns=1,
                        trace_id="req2")
        tracer.write_jsonl(path)
        return path

    def test_tree_roots_at_http_request(self, tmp_path):
        out = format_trace_tree(self._request_trace(tmp_path / "t.jsonl"),
                                trace_id="req1")
        lines = out.splitlines()
        assert lines[0].startswith("trace req1 (4 spans")
        assert lines[1].strip().startswith("http.request")
        assert "other.request" not in out

    def test_children_indent_under_the_root(self, tmp_path):
        out = format_trace_tree(self._request_trace(tmp_path / "t.jsonl"),
                                trace_id="req1")
        by_name = {line.strip().split(" ")[0]: len(line) - len(line.lstrip())
                   for line in out.splitlines()[1:]}
        assert by_name["service.queue_wait"] > by_name["http.request"]
        assert by_name["service.tune"] > by_name["http.request"]
        assert by_name["exec.job"] > by_name["service.tune"]

    def test_unknown_trace_id_reports_cleanly(self, tmp_path):
        out = format_trace_tree(self._request_trace(tmp_path / "t.jsonl"),
                                trace_id="nope")
        assert "no spans carry trace_id=nope" in out

    def test_open_span_renders_as_open(self, tmp_path):
        tracer = Tracer()
        tracer.span("stuck", trace_id="req1").__enter__()
        path = tmp_path / "t.jsonl"
        tracer.write_jsonl(path)
        assert "[OPEN]" in format_trace_tree(path, trace_id="req1")
