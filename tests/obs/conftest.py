"""Obs tests share process-wide singletons; isolate them per test."""

from __future__ import annotations

import pytest

from repro.obs.metrics import MetricsRegistry, get_metrics, set_metrics
from repro.obs.report import load_trace_doc
from repro.obs.timeline import get_timeline_window, set_timeline_window
from repro.obs.tracer import stop_tracing


@pytest.fixture(autouse=True)
def _isolate_obs_globals():
    """Fresh registry per test; always restore the no-op tracer and the
    process-wide timeline window."""
    previous = get_metrics()
    window = get_timeline_window()
    set_metrics(MetricsRegistry())
    try:
        yield
    finally:
        stop_tracing()
        set_metrics(previous)
        set_timeline_window(window)


def load_trace(path) -> tuple[list[dict], dict]:
    """A trace file's completed spans and its metrics snapshot."""
    doc = load_trace_doc(path)
    spans = [s for s in doc.spans
             if s.get("type") == "span" and s.get("dur_ns") is not None]
    return spans, doc.metrics
