"""Benchmark trend gate: fresh timings vs. committed baselines.

The recorder (``benchmarks/recorder.py``) turns every benchmark session
into an appended JSON record; this module closes the loop by *comparing*
a freshly produced ``BENCH_search.json`` / ``BENCH_sim.json`` /
``BENCH_assoc.json`` / ``BENCH_exec.json`` / ``BENCH_transforms.json`` against
the baselines committed under ``benchmarks/baselines/``, so a
throughput regression fails CI instead of scrolling past in a table.

Comparison is per benchmark, on throughput metrics (higher is better):
every ``extra`` key ending in ``_per_sec`` when the benchmark recorded
one, else the inverse mean time (``1 / mean_s``).  A metric
that regressed by at least ``--warn-pct`` (default 10%) warns; at least
``--fail-pct`` (default 30%) fails the run with exit code 1.
Benchmarks present on only one side are reported but never fail -- new
benchmarks must not need a same-commit baseline update to land.

Baselines are resolved per machine family: given a baseline path
``benchmarks/baselines/BENCH_search.json`` and a host whose
:func:`benchmarks.recorder.machine_family` is ``x86_64-4cpu``, the gate
prefers ``benchmarks/baselines/x86_64-4cpu/BENCH_search.json`` and
applies the full warn/fail thresholds to it -- numbers recorded on the
same machine class are comparable.  When no family directory matches,
the flat file is used **warn-only** (regressions print as ``warn`` and
never fail the run), because cross-machine throughput deltas are noise,
not signal.  ``--family`` overrides the detected family.

The wide warn/fail band is still deliberate even within a family:
runner generations differ, so the gate only catches *structural*
regressions (an accidentally quadratic loop, a lost vectorization), not
scheduler noise.  Refresh the baselines whenever a deliberate perf
change moves the numbers (append the family directory to the paths to
refresh a family's file)::

    PYTHONPATH=src REPRO_BENCH_JSON=benchmarks/baselines/BENCH_search.json \\
      REPRO_BENCH_ASSOC_JSON=benchmarks/baselines/BENCH_assoc.json \\
      python -m pytest benchmarks/test_bench_assoc.py \\
        benchmarks/test_bench_search.py benchmarks/test_bench_model.py -q

Usage (pairs of fresh/baseline paths)::

    python -m benchmarks.trend \\
      BENCH_search.json benchmarks/baselines/BENCH_search.json \\
      BENCH_sim.json benchmarks/baselines/BENCH_sim.json \\
      BENCH_assoc.json benchmarks/baselines/BENCH_assoc.json \\
      BENCH_exec.json benchmarks/baselines/BENCH_exec.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from dataclasses import dataclass
from typing import Any

__all__ = [
    "Finding",
    "latest_session",
    "throughput_metrics",
    "compare_sessions",
    "resolve_baseline",
    "main",
    "WARN_PCT",
    "FAIL_PCT",
]

WARN_PCT = 10.0
FAIL_PCT = 30.0


@dataclass(frozen=True)
class Finding:
    """One benchmark metric's fresh-vs-baseline verdict."""

    benchmark: str
    metric: str
    baseline: float
    fresh: float
    status: str  # "ok" | "warn" | "fail" | "new" | "missing"

    @property
    def change_pct(self) -> float:
        """Throughput change, negative = regression."""
        if self.baseline <= 0:
            return 0.0
        return 100.0 * (self.fresh - self.baseline) / self.baseline

    def format(self) -> str:
        if self.status in ("new", "missing"):
            return f"[{self.status}] {self.benchmark}"
        return (
            f"[{self.status}] {self.benchmark} {self.metric}: "
            f"{self.baseline:.3g} -> {self.fresh:.3g} ({self.change_pct:+.1f}%)"
        )


def latest_session(path: pathlib.Path) -> dict[str, dict[str, Any]]:
    """The newest session's rows, keyed by benchmark name."""
    history = json.loads(path.read_text())
    if not isinstance(history, list) or not history:
        raise ValueError(f"{path}: not a recorder history file")
    rows = history[-1].get("benchmarks", [])
    return {row["name"]: row for row in rows if "name" in row}


def throughput_metrics(row: dict[str, Any]) -> dict[str, float]:
    """Higher-is-better metrics for one recorded benchmark row.

    Prefers the explicit ``*_per_sec`` rates a benchmark attached via
    ``extra_info`` (refs/sec, configs/sec); falls back to inverse mean
    wall time so every row is comparable even without a domain rate.
    """
    extra = row.get("extra") or {}
    rates = {
        key: float(value)
        for key, value in extra.items()
        if key.endswith("_per_sec") and isinstance(value, (int, float))
    }
    if rates:
        return rates
    mean = row.get("mean_s")
    if isinstance(mean, (int, float)) and mean > 0:
        return {"1/mean_s": 1.0 / float(mean)}
    return {}


def compare_sessions(
    fresh: dict[str, dict[str, Any]],
    baseline: dict[str, dict[str, Any]],
    warn_pct: float = WARN_PCT,
    fail_pct: float = FAIL_PCT,
) -> list[Finding]:
    """Per-metric findings, worst first within each benchmark."""
    findings: list[Finding] = []
    for name in sorted(set(fresh) | set(baseline)):
        if name not in baseline:
            findings.append(Finding(name, "-", 0.0, 0.0, "new"))
            continue
        if name not in fresh:
            findings.append(Finding(name, "-", 0.0, 0.0, "missing"))
            continue
        base_metrics = throughput_metrics(baseline[name])
        fresh_metrics = throughput_metrics(fresh[name])
        for metric in sorted(base_metrics):
            if metric not in fresh_metrics:
                continue
            b, f = base_metrics[metric], fresh_metrics[metric]
            drop_pct = 100.0 * (b - f) / b if b > 0 else 0.0
            if drop_pct >= fail_pct:
                status = "fail"
            elif drop_pct >= warn_pct:
                status = "warn"
            else:
                status = "ok"
            findings.append(Finding(name, metric, b, f, status))
    return findings


def resolve_baseline(
    base_path: pathlib.Path, family: str
) -> tuple[pathlib.Path, bool]:
    """(baseline path to use, whether the full gate applies).

    Prefers ``<dir>/<family>/<name>`` over the flat ``<dir>/<name>``.
    The flat fallback is warn-only (second element ``False``): numbers
    recorded on an unknown machine class can flag a regression for a
    human but should never fail someone else's CI run.
    """
    family_path = base_path.parent / family / base_path.name
    if family_path.exists():
        return family_path, True
    return base_path, False


def _machine_family() -> str:
    # Works both as `python -m benchmarks.trend` (package import) and
    # when invoked from inside the benchmarks directory.
    try:
        from benchmarks.recorder import machine_family
    except ImportError:  # pragma: no cover - direct invocation
        from recorder import machine_family
    return machine_family()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.trend",
        description="Fail on benchmark throughput regressions vs. baselines.",
    )
    parser.add_argument(
        "paths", nargs="+", metavar="FRESH BASELINE",
        help="pairs of fresh and committed baseline recorder JSON files",
    )
    parser.add_argument("--warn-pct", type=float, default=WARN_PCT,
                        help="warn at this %% throughput drop (default 10)")
    parser.add_argument("--fail-pct", type=float, default=FAIL_PCT,
                        help="fail at this %% throughput drop (default 30)")
    parser.add_argument(
        "--family", default=None, metavar="NAME",
        help="baseline family directory to prefer (default: this "
             "machine's fingerprint, e.g. x86_64-4cpu)",
    )
    parser.add_argument(
        "--trace-pair", nargs=2, action="append", default=None,
        metavar=("FRESH", "BASELINE"),
        help="additionally diff a fresh trace file against a baseline "
             "trace (span self-times and work counters via repro.obs); "
             "a 'fail'-status diff fails the gate.  Repeatable.",
    )
    args = parser.parse_args(argv)
    if len(args.paths) % 2 != 0:
        parser.error("paths must come in FRESH BASELINE pairs")
    if args.fail_pct < args.warn_pct:
        parser.error("--fail-pct must be >= --warn-pct")
    family = args.family if args.family is not None else _machine_family()

    failed = False
    for i in range(0, len(args.paths), 2):
        fresh_path = pathlib.Path(args.paths[i])
        base_path, gated = resolve_baseline(
            pathlib.Path(args.paths[i + 1]), family
        )
        if not base_path.exists():
            print(f"[trend] no baseline at {base_path}; skipping {fresh_path}")
            continue
        if not fresh_path.exists():
            # A committed baseline with no fresh run means the bench
            # step upstream didn't record -- the gate can't vouch.
            print(f"[trend] baseline {base_path} has no fresh run at "
                  f"{fresh_path}: recording step missing?")
            failed = True
            continue
        findings = compare_sessions(
            latest_session(fresh_path),
            latest_session(base_path),
            warn_pct=args.warn_pct,
            fail_pct=args.fail_pct,
        )
        if not gated:
            # Cross-machine comparison: surface regressions, never fail.
            findings = [
                Finding(f.benchmark, f.metric, f.baseline, f.fresh, "warn")
                if f.status == "fail" else f
                for f in findings
            ]
        note = "" if gated else f" (no {family!r} family baseline; warn-only)"
        print(f"[trend] {fresh_path} vs {base_path}{note}:")
        for f in findings:
            print(f"  {f.format()}")
        failed = failed or any(f.status == "fail" for f in findings)
    for fresh_trace, base_trace in args.trace_pair or ():
        failed = _trace_gate(pathlib.Path(fresh_trace),
                             pathlib.Path(base_trace),
                             args.warn_pct, args.fail_pct) or failed
    print(f"[trend] {'FAIL' if failed else 'ok'}")
    return 1 if failed else 0


def _trace_gate(fresh: pathlib.Path, base: pathlib.Path,
                warn_pct: float, fail_pct: float) -> bool:
    """Diff one fresh trace against a baseline trace; True on failure.

    The structural complement of the throughput gate above: where that
    one watches end-to-end benchmark rates, this one watches *where the
    time went* -- per-span-name self-time and the work counters (jobs,
    store hits, simulated refs) recorded in each trace -- so a
    regression shows up with the phase that caused it attached.
    """
    if not base.exists():
        print(f"[trend] no baseline trace at {base}; skipping {fresh}")
        return False
    if not fresh.exists():
        print(f"[trend] baseline trace {base} has no fresh trace at "
              f"{fresh}: tracing step missing?")
        return True
    try:
        from repro.obs.diff import diff_traces
    except ImportError:  # pragma: no cover - src not on the path
        print(f"[trend] repro.obs unavailable; skipping trace diff {fresh}")
        return False
    result = diff_traces(base, fresh, warn_pct=warn_pct, fail_pct=fail_pct)
    print(result.format())
    return result.status == "fail"


if __name__ == "__main__":
    sys.exit(main())
