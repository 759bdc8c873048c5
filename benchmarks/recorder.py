"""Machine-readable benchmark output.

pytest-benchmark prints a human table and forgets it; this module gives
the suite a durable artifact instead.  Every benchmark session appends a
summary of its timings to ``BENCH_search.json`` (override the path with
``$REPRO_BENCH_JSON``, set it to ``0``/``off`` to disable), so the perf
trajectory of the simulator and the search subsystem can be tracked
across commits by diffing one small JSON file.

Benchmarks in the groups of :data:`GROUP_FILES` go to their own file
instead (each with its own environment override), so the histories of
the simulator hot paths (``sim``, ``test_bench_simulator.py``), the
k-way simulator (``assoc``), the symbolic tier (``symbolic``), the sweep
scheduler (``exec``), the tuning service (``service``), the padding
heuristics (``transforms``, ``test_bench_transforms.py``) and the search
subsystem stay independently diffable; all files are uploaded as CI
artifacts per run.

The file holds a list of session records, newest last::

    [
      {
        "timestamp": "2026-08-05T12:00:00+00:00",
        "machine": "x86_64-4cpu",
        "benchmarks": [
          {"name": "test_bench_search", "mean_s": 0.41,
           "min_s": 0.40, "max_s": 0.42, "rounds": 2},
          ...
        ],
        "metrics": {"counters": {"sim.refs": 12000000, ...}, ...}
      },
      ...
    ]

``machine`` is the coarse host fingerprint (:func:`machine_family`)
that ``benchmarks/trend.py`` uses to pick a per-machine baseline
family; ``metrics`` is the :mod:`repro.obs` registry snapshot at
session end, so every benchmark artifact carries the refs simulated,
store hit counts, and per-level cache totals behind its timings.
"""

from __future__ import annotations

import datetime
import json
import os
import pathlib
import platform
from typing import Any

ENV_BENCH_JSON = "REPRO_BENCH_JSON"
_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_PATH = _ROOT / "BENCH_search.json"

#: Benchmark group -> (artifact file name, environment override).  Rows of
#: any other group go to ``BENCH_search.json`` (``$REPRO_BENCH_JSON``).
GROUP_FILES = {
    "sim": ("BENCH_sim.json", "REPRO_BENCH_SIM_JSON"),
    "assoc": ("BENCH_assoc.json", "REPRO_BENCH_ASSOC_JSON"),
    "symbolic": ("BENCH_symbolic.json", "REPRO_BENCH_SYMBOLIC_JSON"),
    "exec": ("BENCH_exec.json", "REPRO_BENCH_EXEC_JSON"),
    "service": ("BENCH_service.json", "REPRO_BENCH_SERVICE_JSON"),
    "transforms": ("BENCH_transforms.json", "REPRO_BENCH_TRANSFORMS_JSON"),
}

#: Values of $REPRO_BENCH_JSON that turn recording off entirely.
_DISABLED = {"0", "off", "none", ""}


def machine_family() -> str:
    """Coarse host fingerprint, e.g. ``x86_64-4cpu``.

    Architecture plus CPU count is deliberately blunt: it separates the
    machine classes whose throughput genuinely differs (a CI runner vs.
    a laptop vs. an ARM box) without fragmenting baselines over OS
    minor versions.  ``benchmarks/trend.py`` looks for a baseline
    directory of this name before falling back to the flat files.
    """
    return f"{platform.machine() or 'unknown'}-{os.cpu_count() or 0}cpu"


def _metrics_snapshot() -> dict[str, Any] | None:
    """The repro.obs registry snapshot, or ``None`` when unavailable.

    Guarded so the recorder still works when ``src`` is not on the path
    (benchmarks invoked standalone) or before the obs layer existed.
    """
    try:
        from repro.obs.metrics import get_metrics
    except ImportError:
        return None
    snapshot = get_metrics().snapshot()
    return snapshot or None


def output_path() -> pathlib.Path | None:
    """Where to write, or ``None`` when recording is disabled."""
    env = os.environ.get(ENV_BENCH_JSON)
    if env is None:
        return DEFAULT_PATH
    if env.strip().lower() in _DISABLED:
        return None
    return pathlib.Path(env)


def group_output_path(group: str | None) -> pathlib.Path | None:
    """Where rows of ``group`` go, or ``None`` when disabled.

    A routed group's environment variable overrides its path on its own
    (``0``/``off`` disables just that file); ``$REPRO_BENCH_JSON=off`` is
    the master switch for every file.
    """
    if group not in GROUP_FILES:
        return output_path()
    name, env_var = GROUP_FILES[group]
    env = os.environ.get(env_var)
    if env is not None:
        if env.strip().lower() in _DISABLED:
            return None
        return pathlib.Path(env)
    if output_path() is None:
        return None
    return _ROOT / name


def summarize(benchmarks) -> list[dict[str, Any]]:
    """Per-benchmark timing summaries from pytest-benchmark's records."""
    rows = []
    for bench in benchmarks:
        stats = getattr(bench, "stats", None)
        # pytest-benchmark nests Metadata.stats -> Stats (attribute access).
        stats = getattr(stats, "stats", stats)
        if stats is None:
            continue
        row = {
            "name": bench.name,
            "group": getattr(bench, "group", None),
            "mean_s": round(stats.mean, 6),
            "min_s": round(stats.min, 6),
            "max_s": round(stats.max, 6),
            "rounds": stats.rounds,
        }
        extra = getattr(bench, "extra_info", None)
        if extra:
            # Benchmarks attach derived metrics (refs/sec, speedups) here.
            row["extra"] = dict(extra)
        rows.append(row)
    return rows


def append_session(rows: list[dict[str, Any]], path: pathlib.Path | None = None,
                   trace: str | None = None):
    """Append one session record; returns the path written (or ``None``).

    ``trace`` is the path of the trace artifact recorded alongside this
    session (``pytest benchmarks --bench-trace PATH``), stored in the
    record so the timings stay linked to the spans that explain them.

    Corrupt or foreign existing content is renamed aside rather than
    destroyed, so a bad merge can never silently eat the history.
    """
    if path is None:
        path = output_path()
    if path is None or not rows:
        return None
    history: list[Any] = []
    if path.exists():
        try:
            existing = json.loads(path.read_text())
            if isinstance(existing, list):
                history = existing
            else:
                path.rename(path.with_suffix(".json.bak"))
        except (json.JSONDecodeError, OSError):
            path.rename(path.with_suffix(".json.bak"))
    record: dict[str, Any] = {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "machine": machine_family(),
        "benchmarks": rows,
    }
    metrics = _metrics_snapshot()
    if metrics is not None:
        record["metrics"] = metrics
    if trace is not None:
        record["trace"] = str(trace)
    history.append(record)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(history, indent=2) + "\n")
    return path


def append_routed(rows: list[dict[str, Any]],
                  trace: str | None = None) -> list[pathlib.Path]:
    """Split ``rows`` by group and append each bucket to its artifact.

    Rows go to :func:`group_output_path` of their ``group``.  ``trace``
    (the session's trace artifact, if one was recorded) is attached to
    every record written.  Returns the paths actually written.
    """
    buckets: dict[pathlib.Path, list[dict[str, Any]]] = {}
    for row in rows:
        path = group_output_path(row.get("group"))
        if path is not None:
            buckets.setdefault(path, []).append(row)
    written = []
    for path, bucket in buckets.items():
        out = append_session(bucket, path, trace=trace)
        if out is not None:
            written.append(out)
    return written
