"""Structural trace regression diffs: ``repro-experiments diff``.

The benchmark trend gate compares throughput numbers; it can say a run
got slower but not *where*.  This module compares two trace files span
by span: spans aggregate by name on each side (same rollup as the
``report`` verb), align by name, and every self-time increase beyond
the thresholds becomes a warn/fail finding naming the exact span that
regressed -- ``exec.job`` grew but ``store.get`` didn't is a very
different investigation than the reverse.

Alongside span timings, the embedded metrics snapshots diff two ways:

* **work counters** (``exec.jobs``, ``sim.refs``, ...) are *structural*
  -- on a deterministic workload they must match exactly, so any drift
  is reported at warn level regardless of size (a job-count change is a
  workload change, not noise);
* **timing counters/histograms** (anything carrying ``seconds``) use
  the same percentage thresholds as span self-times.

Noise discipline: a span regression must clear *both* the percentage
threshold and ``min_self_s`` of absolute growth, so a 0.1ms span tripling
does not fail CI.  Diffing a trace against itself reports zero deltas by
construction -- CI pins this as the gate's own sanity check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .report import aggregate_spans, load_trace_doc

__all__ = ["SpanDelta", "CounterDelta", "TraceDiff", "diff_traces",
           "WARN_PCT", "FAIL_PCT", "MIN_SELF_S"]

WARN_PCT = 10.0
FAIL_PCT = 30.0
#: Absolute self-time growth a span must show before percentages count.
MIN_SELF_S = 0.010


def _status(pct: float, warn_pct: float, fail_pct: float) -> str:
    if pct >= fail_pct:
        return "fail"
    if pct >= warn_pct:
        return "warn"
    return "ok"


@dataclass(frozen=True)
class SpanDelta:
    """One span name's self-time movement between base and fresh."""

    name: str
    base_self_s: float
    fresh_self_s: float
    base_count: int
    fresh_count: int
    status: str  # ok | warn | fail

    @property
    def delta_s(self) -> float:
        return self.fresh_self_s - self.base_self_s

    @property
    def pct(self) -> float:
        if self.base_self_s <= 0:
            return 0.0 if self.fresh_self_s <= 0 else float("inf")
        return 100.0 * self.delta_s / self.base_self_s


@dataclass(frozen=True)
class CounterDelta:
    """One metrics counter's movement between base and fresh."""

    name: str
    base: float
    fresh: float
    kind: str  # work | timing
    status: str


@dataclass(frozen=True)
class TraceDiff:
    """Everything that moved between two traces, plus the verdict."""

    base_path: str
    fresh_path: str
    spans: list = field(default_factory=list)
    counters: list = field(default_factory=list)
    warn_pct: float = WARN_PCT
    fail_pct: float = FAIL_PCT

    @property
    def status(self) -> str:
        statuses = {d.status for d in self.spans} | {d.status for d in self.counters}
        if "fail" in statuses:
            return "fail"
        if "warn" in statuses:
            return "warn"
        return "ok"

    @property
    def regressions(self) -> list:
        return [d for d in list(self.spans) + list(self.counters)
                if d.status != "ok"]

    def format(self, top: int = 12) -> str:
        lines = [f"trace diff: {self.fresh_path} vs {self.base_path} "
                 f"(warn >= {self.warn_pct:.0f}%, fail >= {self.fail_pct:.0f}%)"]
        moved = [d for d in self.spans if d.status != "ok" or abs(d.delta_s) >= MIN_SELF_S]
        moved.sort(key=lambda d: -abs(d.delta_s))
        for d in moved[:top]:
            pct = f"{d.pct:+.0f}%" if d.pct != float("inf") else "new"
            lines.append(
                f"  [{d.status}] span {d.name}: self {d.base_self_s:.4f}s -> "
                f"{d.fresh_self_s:.4f}s ({pct}, x{d.base_count}->x{d.fresh_count})"
            )
        for d in self.counters:
            if d.status == "ok":
                continue
            lines.append(
                f"  [{d.status}] {d.kind} counter {d.name}: "
                f"{d.base:g} -> {d.fresh:g}"
            )
        n_reg = len(self.regressions)
        lines.append(
            f"trace diff status: {self.status} "
            f"({n_reg} regression(s), {len(self.spans)} span names, "
            f"{len(self.counters)} counters compared)"
        )
        return "\n".join(lines)


def _self_times(path) -> tuple[dict, dict]:
    doc = load_trace_doc(path)
    spans = [s for s in doc.spans if s.get("type") == "span"]
    aggs = aggregate_spans(spans)
    return {a.name: a for a in aggs}, doc.metrics


def diff_traces(base_path, fresh_path, warn_pct: float = WARN_PCT,
                fail_pct: float = FAIL_PCT,
                min_self_s: float = MIN_SELF_S) -> TraceDiff:
    """Compare two trace files; only *increases* regress (getting faster
    is never a finding)."""
    base_aggs, base_metrics = _self_times(base_path)
    fresh_aggs, fresh_metrics = _self_times(fresh_path)

    span_deltas = []
    for name in sorted(set(base_aggs) | set(fresh_aggs)):
        b = base_aggs.get(name)
        f = fresh_aggs.get(name)
        base_s = b.self_s if b else 0.0
        fresh_s = f.self_s if f else 0.0
        delta = fresh_s - base_s
        status = "ok"
        if delta >= min_self_s:
            if base_s <= 0:
                # a brand-new span consuming real time is worth a look,
                # but absent a baseline there is no percentage to gate on
                status = "warn"
            else:
                status = _status(100.0 * delta / base_s, warn_pct, fail_pct)
        span_deltas.append(SpanDelta(
            name=name,
            base_self_s=base_s,
            fresh_self_s=fresh_s,
            base_count=b.count if b else 0,
            fresh_count=f.count if f else 0,
            status=status,
        ))

    counter_deltas = []
    base_c = base_metrics.get("counters", {})
    fresh_c = fresh_metrics.get("counters", {})
    for name in sorted(set(base_c) | set(fresh_c)):
        bv = float(base_c.get(name, 0))
        fv = float(fresh_c.get(name, 0))
        if bv == fv:
            continue
        timing = "seconds" in name
        if timing:
            delta = fv - bv
            if delta <= 0 or delta < min_self_s:
                status = "ok"
            elif bv <= 0:
                status = "warn"
            else:
                status = _status(100.0 * delta / bv, warn_pct, fail_pct)
        else:
            # work counters must match on a deterministic workload; any
            # drift is a workload change, flagged independent of size
            status = "warn"
        counter_deltas.append(CounterDelta(
            name=name, base=bv, fresh=fv,
            kind="timing" if timing else "work", status=status,
        ))

    return TraceDiff(
        base_path=str(base_path),
        fresh_path=str(fresh_path),
        spans=span_deltas,
        counters=counter_deltas,
        warn_pct=warn_pct,
        fail_pct=fail_pct,
    )
