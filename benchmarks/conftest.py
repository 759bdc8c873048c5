"""Benchmark-suite hooks: record timings to the BENCH_*.json artifacts.

Runs after any ``pytest benchmarks`` session.  Recording is best-effort:
a missing pytest-benchmark session (e.g. ``--benchmark-disable``) or an
unwritable path must never fail the suite.  Rows are routed by benchmark
group (:data:`benchmarks.recorder.GROUP_FILES`): for example the ``assoc``
group (k-way simulator throughput) lands in ``BENCH_assoc.json`` and the
``transforms`` group (the padding heuristics) in ``BENCH_transforms.json``;
rows of any other group go to ``BENCH_search.json``.

``--bench-trace PATH`` (or ``$REPRO_BENCH_TRACE``) additionally records
the whole session as a :mod:`repro.obs` trace -- spans, timeline counter
tracks, and the metrics snapshot -- written to PATH at session end, and
attaches that path to every BENCH_*.json record so each timing row stays
linked to the spans that explain it.  (The flag is not spelled
``--trace`` because pytest already owns that name for its debugger.)
``--bench-trace-format chrome`` writes a Perfetto-loadable file instead
of JSON lines.
"""

from __future__ import annotations

import os

from benchmarks import recorder


def pytest_addoption(parser):
    group = parser.getgroup("repro", "repro benchmark recording")
    group.addoption(
        "--bench-trace", action="store", default=None, metavar="PATH",
        help="record the benchmark session as a repro.obs trace at PATH "
             "(spans + timeline counter tracks + metrics snapshot)",
    )
    group.addoption(
        "--bench-trace-format", action="store", default="jsonl",
        choices=("jsonl", "chrome"),
        help="trace file format for --bench-trace (default jsonl)",
    )


def _trace_path(config) -> str | None:
    return (config.getoption("--bench-trace", default=None)
            or os.environ.get("REPRO_BENCH_TRACE") or None)


def pytest_configure(config):
    if _trace_path(config) is None:
        return
    try:
        from repro.obs.tracer import start_tracing
    except ImportError:  # src not on the path; timings still record
        return
    # Hold our own reference: benchmarks that exercise the obs layer
    # (test_bench_obs) install and stop tracers of their own, so the
    # globally-installed tracer at session end is not necessarily ours.
    config._repro_bench_tracer = start_tracing()


def pytest_sessionfinish(session, exitstatus):
    trace_path = _trace_path(session.config)
    if trace_path is not None:
        try:
            from repro.obs.metrics import get_metrics
            from repro.obs.tracer import get_tracer, stop_tracing

            tracer = getattr(session.config, "_repro_bench_tracer", None)
            if tracer is None:
                raise RuntimeError("session tracer never started")
            fmt = session.config.getoption("--bench-trace-format",
                                           default="jsonl")
            tracer.write(trace_path, format=fmt,
                         metrics=get_metrics().snapshot())
            print(f"\n[bench] trace written to {trace_path} "
                  f"({fmt}, {len(tracer.spans())} spans, "
                  f"{len(tracer.counters())} counter samples)")
            if get_tracer() is tracer:
                stop_tracing()
        except Exception as exc:  # pragma: no cover - diagnostics only
            print(f"\n[bench] trace recording skipped: {exc}")
            trace_path = None
    try:
        bsession = getattr(session.config, "_benchmarksession", None)
        if bsession is None:
            return
        rows = recorder.summarize(bsession.benchmarks)
        for path in recorder.append_routed(rows, trace=trace_path):
            print(f"\n[bench] wrote timings to {path}")
    except Exception as exc:  # pragma: no cover - diagnostics only
        print(f"\n[bench] recording skipped: {exc}")
