"""Trace-file analysis: the ``repro-experiments report`` summary.

Reads a trace produced by ``--trace`` (either format), aggregates spans
by name, and prints the questions a perf investigation starts from:

* **top spans by self-time** -- time inside a span minus time inside its
  direct children, so a sweep that spends everything in its jobs shows
  near-zero self-time and the jobs themselves surface;
* **store behaviour** -- hit rate of the result store across the run;
* **throughput** -- references simulated per second of simulation time,
  and worker utilization (summed job time over wall x workers), plus the
  pool's dispatch behaviour: jobs that ran in workers, steals
  (out-of-order completions, the signature of dynamic load balancing),
  and the queue-depth profile sampled at each completion;
* **latency spread** -- p50/p95/p99 for the recorded histograms, from
  the snapshot's reservoir percentiles;
* **timeline coverage** -- how many counter-track samples the trace
  carries, so a missing phase curve is visible from the summary alone.

Spans without an end timestamp -- a SIGTERM'd service's in-flight
request, a crashed worker -- are **tolerated**: they aggregate with zero
duration and the report appends one warning line naming them, instead of
the pre-PR-10 behaviour of silently skewing self-time or raising.

:func:`format_trace_tree` renders one request's causal tree: every span
and event carrying the requested ``trace_id``, indented by parentage,
across process and thread boundaries.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field

from repro.util.tabulate import format_table

__all__ = [
    "SpanAgg",
    "TraceDoc",
    "load_trace_doc",
    "aggregate_spans",
    "format_report",
    "format_trace_tree",
]


@dataclass(frozen=True)
class SpanAgg:
    """All spans of one name, rolled up."""

    name: str
    count: int
    total_s: float
    self_s: float

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0


@dataclass(frozen=True)
class TraceDoc:
    """One parsed trace file: spans (+events), counter samples, metrics.

    ``spans`` rows are the JSONL span shape regardless of the on-disk
    format; open spans carry ``"open": True`` and no ``dur_ns``.
    ``counters`` rows are the JSONL counter shape (``name``, ``ts_ns``,
    ``pid``, ``tid``, ``values``).
    """

    spans: list = field(default_factory=list)
    counters: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)

    def open_spans(self) -> list[dict]:
        return [s for s in self.spans
                if s.get("type") == "span"
                and (s.get("open") or s.get("dur_ns") is None)]


def _chrome_to_doc(doc: dict) -> TraceDoc:
    spans: list[dict] = []
    counters: list[dict] = []
    for ev in doc.get("traceEvents", []):
        ph = ev.get("ph")
        if ph == "C":
            counters.append(
                {
                    "type": "counter",
                    "name": ev.get("name", "?"),
                    "cat": ev.get("cat", ""),
                    "ts_ns": int(ev.get("ts", 0.0) * 1000),
                    "pid": ev.get("pid"),
                    "tid": ev.get("tid"),
                    "values": dict(ev.get("args") or {}),
                }
            )
            continue
        if ph not in ("X", "B", "i"):
            continue
        args = dict(ev.get("args") or {})
        row = {
            "type": "span" if ph in ("X", "B") else "event",
            "name": ev.get("name", "?"),
            "cat": ev.get("cat", ""),
            "start_ns": int(ev.get("ts", 0.0) * 1000),
            "pid": ev.get("pid"),
            "tid": ev.get("tid"),
            "id": args.pop("id", None),
            "parent": args.pop("parent", None),
            "args": args,
        }
        if ph == "X":
            row["dur_ns"] = int(ev.get("dur", 0.0) * 1000)
        elif ph == "B":
            row["open"] = True
        spans.append(row)
    return TraceDoc(spans=spans, counters=counters,
                    metrics=doc.get("metrics") or {})


def load_trace_doc(path) -> TraceDoc:
    """Parse a JSONL or Chrome trace file into one :class:`TraceDoc`.

    Raises ``ValueError`` on unrecognizable content.
    """
    path = pathlib.Path(path)
    text = path.read_text()
    # A chrome trace is one JSON document; JSONL is one document per line,
    # so whole-text parsing fails on it (unless it has exactly one line --
    # then the traceEvents check below tells them apart).
    doc = None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        pass
    if isinstance(doc, dict) and "traceEvents" in doc:
        return _chrome_to_doc(doc)
    spans: list[dict] = []
    counters: list[dict] = []
    metrics: dict = {}
    for i, line in enumerate(text.splitlines()):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{i + 1}: not JSON lines ({exc})") from None
        kind = row.get("type")
        if kind == "metrics":
            metrics = row.get("metrics") or {}
        elif kind == "counter":
            counters.append(row)
        elif kind in ("span", "event"):
            spans.append(row)
    return TraceDoc(spans=spans, counters=counters, metrics=metrics)


def aggregate_spans(spans: list[dict]) -> list[SpanAgg]:
    """Per-name rollups, sorted by self-time descending.

    Spans with a missing/None ``dur_ns`` (open spans from a drained or
    crashed process) contribute a count but zero time -- the caller is
    expected to surface them separately (see :func:`format_report`).
    """
    child_time: dict = {}
    for span in spans:
        parent = span.get("parent")
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0) + (span.get("dur_ns") or 0)
    totals: dict[str, list[float]] = {}
    for span in spans:
        dur = span.get("dur_ns") or 0
        self_ns = max(0, dur - child_time.get(span.get("id"), 0))
        agg = totals.setdefault(span["name"], [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += dur / 1e9
        agg[2] += self_ns / 1e9
    rows = [
        SpanAgg(name=name, count=int(c), total_s=t, self_s=s)
        for name, (c, t, s) in totals.items()
    ]
    rows.sort(key=lambda r: (-r.self_s, r.name))
    return rows


def _derived_lines(metrics: dict) -> list[str]:
    counters = metrics.get("counters", {})
    gauges = metrics.get("gauges", {})
    lines = []
    jobs = counters.get("exec.jobs", 0)
    hits = counters.get("exec.store_hits", 0)
    if jobs:
        lines.append(
            f"store hit rate: {hits}/{jobs} ({100.0 * hits / jobs:.0f}%)"
        )
    refs = counters.get("sim.refs", 0)
    sim_s = counters.get("exec.sim_seconds", 0.0)
    if refs and sim_s:
        lines.append(
            f"simulated refs: {refs:,} at {refs / sim_s / 1e6:.2f} M refs/s "
            f"(sim {sim_s:.2f}s)"
        )
    wall_s = counters.get("exec.wall_seconds", 0.0)
    workers = gauges.get("exec.workers", 1) or 1
    if wall_s and sim_s:
        util = sim_s / (wall_s * workers)
        lines.append(
            f"worker utilization: {100.0 * util:.0f}% "
            f"(sim {sim_s:.2f}s / wall {wall_s:.2f}s x {workers} workers)"
        )
    pooled = counters.get("exec.pool_jobs", 0)
    if pooled:
        steals = counters.get("exec.steals", 0)
        depth = (metrics.get("histograms", {}) or {}).get("exec.queue_depth")
        depth_s = ""
        if depth and depth.get("count"):
            depth_s = (
                f", queue depth peak {depth['max']:.0f} "
                f"mean {depth['mean']:.1f}"
            )
        lines.append(
            f"pool dispatch: {pooled} jobs, {steals} steals "
            f"(out-of-order completions){depth_s}"
        )
    evals = counters.get("search.evals", 0)
    if evals:
        memo = counters.get("search.memo_hits", 0)
        lines.append(f"search evaluations: {evals} simulated, {memo} memoized")
    preds = counters.get("model.predictions", 0)
    if preds:
        sims = counters.get("exec.simulated", 0)
        ratio = f" ({preds / sims:.0f}x the simulations)" if sims else ""
        lines.append(f"analytic predictions: {preds}{ratio}")
    for name, hist in sorted((metrics.get("histograms", {}) or {}).items()):
        if not hist.get("count") or "p50" not in hist:
            continue
        lines.append(
            f"{name}: n={hist['count']} "
            f"p50={hist['p50']:.4g} p95={hist['p95']:.4g} p99={hist['p99']:.4g}"
        )
    return lines


def _counter_lines(counter_rows: list[dict]) -> list[str]:
    """One summary line per counter track (samples + last value)."""
    tracks: dict[str, list[dict]] = {}
    for row in counter_rows:
        tracks.setdefault(row.get("name", "?"), []).append(row)
    lines = []
    for name in sorted(tracks):
        rows = sorted(tracks[name], key=lambda r: r.get("ts_ns", 0))
        last = rows[-1].get("values") or {}
        last_s = " ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                          for k, v in sorted(last.items()))
        lines.append(f"counter {name}: {len(rows)} samples, last {last_s}")
    return lines


def format_report(path, top: int = 12) -> str:
    """The human summary of one trace file."""
    doc = load_trace_doc(path)
    spans = [s for s in doc.spans if s.get("type") == "span"]
    if not spans and not doc.counters:
        return f"{path}: trace contains no spans"
    aggs = aggregate_spans(spans)
    table = format_table(
        ["span", "count", "total s", "self s", "mean s"],
        [[a.name, a.count, a.total_s, a.self_s, a.mean_s] for a in aggs[:top]],
        floatfmt=".4f",
        title=f"Top spans by self-time ({len(spans)} spans in {path})",
    )
    lines = _derived_lines(doc.metrics)
    lines.extend(_counter_lines(doc.counters))
    open_spans = doc.open_spans()
    if open_spans:
        names = sorted({s.get("name", "?") for s in open_spans})
        shown = ", ".join(names[:6]) + (", ..." if len(names) > 6 else "")
        lines.append(
            f"warning: {len(open_spans)} open span(s) never completed "
            f"({shown}) -- counted with zero duration"
        )
    if lines:
        return table + "\n" + "\n".join(f"[obs] {line}" for line in lines)
    return table


def _span_line(span: dict) -> str:
    dur = span.get("dur_ns")
    if span.get("type") == "event":
        timing = "event"
    elif dur is None:
        timing = "OPEN"
    else:
        timing = f"{dur / 1e9:.4f}s"
    where = f"pid={span.get('pid')} tid={span.get('tid')}"
    args = span.get("args") or {}
    hide = {"trace_id"}
    arg_s = " ".join(f"{k}={args[k]}" for k in sorted(args) if k not in hide)
    return f"{span.get('name', '?')} [{timing}] ({where})" + (
        f" {arg_s}" if arg_s else "")


def format_trace_tree(path, trace_id: str) -> str:
    """Render the causal tree of one request.

    Only spans/events whose args carry ``trace_id`` are shown (plus any
    ancestors needed to root them); this is how one ``serve`` request is
    followed across the event loop, the queue, the pipeline thread, and
    the simulator -- the tree ignores pid/tid boundaries and follows
    ``parent`` links only.
    """
    doc = load_trace_doc(path)
    spans = [s for s in doc.spans if s.get("id") is not None]
    keep = {s["id"] for s in spans
            if (s.get("args") or {}).get("trace_id") == trace_id}
    if not keep:
        return f"{path}: no spans carry trace_id={trace_id}"
    by_id = {s["id"]: s for s in spans}
    # pull in ancestors so the matched spans still root properly
    frontier = list(keep)
    while frontier:
        parent = by_id.get(frontier.pop(), {}).get("parent")
        if parent is not None and parent in by_id and parent not in keep:
            keep.add(parent)
            frontier.append(parent)
    spans = [s for s in spans if s["id"] in keep]
    children: dict = {}
    roots = []
    for s in spans:
        parent = s.get("parent")
        if parent in keep:
            children.setdefault(parent, []).append(s)
        else:
            roots.append(s)
    order = (lambda s: (s.get("start_ns") or 0, s.get("id") or 0))
    lines = [f"trace {trace_id} ({len(spans)} spans in {path})"]

    def walk(span: dict, depth: int) -> None:
        lines.append("  " * depth + _span_line(span))
        for child in sorted(children.get(span["id"], []), key=order):
            walk(child, depth + 1)

    for root in sorted(roots, key=order):
        walk(root, 1)
    return "\n".join(lines)
