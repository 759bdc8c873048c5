"""repro.obs -- unified tracing and metrics across the whole stack.

The observability layer the executor, simulators, search, model,
service, and experiment harnesses all report through:

* :mod:`repro.obs.tracer` -- nested spans with monotonic timestamps,
  process/thread ids and typed attributes; counter samples that export
  as Perfetto counter tracks; open-span capture for post-mortem traces;
  trace-context scopes for cross-thread/cross-process causality; a
  process-wide registry whose default is a true no-op; JSON-lines and
  Chrome trace-event export (open in ``chrome://tracing`` or
  https://ui.perfetto.dev);
* :mod:`repro.obs.metrics` -- counters / gauges / histograms (with
  reservoir p50/p95/p99) unifying the previously siloed stats (refs
  simulated, per-level hit/miss totals, store hit rate, search
  evaluations, predictor scores);
* :mod:`repro.obs.timeline` -- windowed per-level (accesses, misses)
  telemetry: phase behaviour within one kernel, summing bit-exactly to
  the untimed totals, rendered as miss-rate-over-time counter tracks;
* :mod:`repro.obs.prometheus` -- Prometheus text exposition of a
  metrics snapshot (the service's ``/metrics?format=prometheus``);
* :mod:`repro.obs.report` -- the ``repro-experiments report`` summary:
  top spans by self-time, store hit rate, sims per second, histogram
  percentiles, counter-track coverage, and per-request causal trees;
* :mod:`repro.obs.diff` -- structural trace regression diffs (the
  ``repro-experiments diff`` verb and the second CI trend gate).

Quick use::

    from repro.obs import start_tracing, get_metrics

    tracer = start_tracing()
    ...  # run any sweep / search / experiment
    tracer.write("out.json", format="chrome",
                 metrics=get_metrics().snapshot())

See ``docs/observability.md`` for the full tour.
"""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.obs.tracer": (
        "Span", "CounterSample", "Tracer", "NullTracer", "NULL_TRACER",
        "get_tracer", "set_tracer", "start_tracing", "stop_tracing",
    ),
    "repro.obs.metrics": (
        "Counter", "Gauge", "Histogram", "MetricsRegistry", "get_metrics",
        "set_metrics", "diff_counters", "best_of",
        "format_exec_line",
    ),
    "repro.obs.timeline": (
        "Timeline", "emit_counter_tracks", "get_timeline_window",
        "set_timeline_window",
    ),
    "repro.obs.prometheus": ("format_prometheus",),
    "repro.obs.report": (
        "TraceDoc", "load_trace_doc", "aggregate_spans",
        "format_report", "format_trace_tree",
    ),
    "repro.obs.diff": ("TraceDiff", "diff_traces"),
})
