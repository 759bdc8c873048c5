"""Structured tracing: nested spans with negligible disabled overhead.

One experiment run produces thousands of simulations across sweep rounds,
search loops, and worker processes; a flat wall-clock number cannot say
*where* the time went.  The tracer records a tree of **spans** -- named,
timed regions with typed attributes -- plus instant **events**, and
exports them as JSON lines or as the Chrome trace-event format that
``chrome://tracing`` and Perfetto load directly.

Design constraints, in order:

* **Disabled is free.**  The process-wide default is a
  :class:`NullTracer` whose ``span()`` returns one shared no-op context
  manager; hot paths guard attribute construction behind
  ``tracer.enabled``, so an untraced run pays one global read and one
  boolean test per instrumentation site.
* **Zero dependencies.**  Standard library only; one small module.
* **Cross-process composable.**  Sweep jobs execute in worker processes
  where no tracer lives; workers report wall-clock ``(start_ns,
  duration)`` pairs back and the parent *synthesizes* their spans via
  :meth:`Tracer.add_span`, tagging each with the worker pid so per-worker
  lanes appear in a trace viewer.

Timestamps are ``time.time_ns()`` epoch nanoseconds (comparable across
processes on one machine); durations are measured with
``time.perf_counter_ns()`` where the span is live, so they do not inherit
wall-clock adjustments.

Beyond spans the tracer records two more shapes:

* **counter samples** (:class:`CounterSample`) -- timestamped numeric
  series that export as Chrome/Perfetto **counter tracks** (``ph: "C"``),
  so a value over time (a per-level miss rate, a queue depth) renders as
  a curve next to the span lanes; :mod:`repro.obs.timeline` feeds these.
* **open spans** -- a span whose thread never reached ``__exit__``
  (a SIGTERM'd worker, a crashed pipeline) is still exported, without a
  duration, so post-mortem traces show what was in flight.

Cross-process/cross-thread *causality* is threaded with trace contexts:
:meth:`Tracer.scope` re-establishes a parent span id (reserved up front
with :meth:`Tracer.new_span_id`) plus ambient attributes -- typically a
``trace_id`` -- in another thread, so everything recorded inside the
scope parents under the original request and carries its id.  The
tuning service uses exactly this to stitch an HTTP request to the queue
wait, pipeline, and simulator spans it caused.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from dataclasses import dataclass, field

__all__ = [
    "Span",
    "CounterSample",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "start_tracing",
    "stop_tracing",
]


@dataclass(frozen=True)
class Span:
    """One completed span (``dur_ns`` set) or instant event (``dur_ns`` None)."""

    name: str
    cat: str
    start_ns: int  # epoch nanoseconds (time.time_ns)
    dur_ns: int | None
    pid: int
    tid: int
    span_id: int
    parent_id: int | None
    args: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        """The JSONL encoding (``type`` distinguishes spans from events)."""
        out = {
            "type": "span" if self.dur_ns is not None else "event",
            "name": self.name,
            "cat": self.cat,
            "start_ns": self.start_ns,
            "pid": self.pid,
            "tid": self.tid,
            "id": self.span_id,
            "parent": self.parent_id,
        }
        if self.dur_ns is not None:
            out["dur_ns"] = self.dur_ns
        if self.args:
            out["args"] = self.args
        return out

    def to_chrome(self) -> dict:
        """The Chrome trace-event encoding (``ph`` X complete / i instant)."""
        event = {
            "name": self.name,
            "cat": self.cat or "repro",
            "pid": self.pid,
            "tid": self.tid,
            "ts": self.start_ns / 1000.0,  # microseconds
            "args": {**self.args, "id": self.span_id, "parent": self.parent_id},
        }
        if self.dur_ns is not None:
            event["ph"] = "X"
            event["dur"] = self.dur_ns / 1000.0
        else:
            event["ph"] = "i"
            event["s"] = "t"  # thread-scoped instant
        return event


@dataclass(frozen=True)
class CounterSample:
    """One timestamped sample of one (or several parallel) numeric series.

    ``values`` maps series name to number; a Chrome counter event renders
    every key as one series within the ``name`` track, so related series
    (hits and misses of one level) can share a track while unrelated
    scales (a miss *rate*) get their own.
    """

    name: str
    ts_ns: int  # epoch nanoseconds (time.time_ns)
    pid: int
    tid: int
    values: dict = field(default_factory=dict)
    cat: str = ""

    def to_json(self) -> dict:
        return {
            "type": "counter",
            "name": self.name,
            "cat": self.cat,
            "ts_ns": self.ts_ns,
            "pid": self.pid,
            "tid": self.tid,
            "values": self.values,
        }

    def to_chrome(self) -> dict:
        return {
            "name": self.name,
            "cat": self.cat or "repro",
            "ph": "C",
            "pid": self.pid,
            "tid": self.tid,
            "ts": self.ts_ns / 1000.0,  # microseconds
            "args": dict(self.values),
        }


class _ActiveSpan:
    """Context manager for one live span; exposes ``set()`` for late attrs."""

    __slots__ = ("_tracer", "name", "cat", "args", "span_id", "parent_id",
                 "_start_ns", "_t0", "_tid")

    def __init__(self, tracer: "Tracer", name: str, cat: str, args: dict):
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.args = args
        self.span_id = tracer._next_id()
        self.parent_id: int | None = None
        self._start_ns = 0
        self._t0 = 0
        self._tid = 0

    def set(self, **attrs) -> "_ActiveSpan":
        """Attach attributes discovered while the span is running."""
        self.args.update(attrs)
        return self

    def __enter__(self) -> "_ActiveSpan":
        stack = self._tracer._stack()
        self.parent_id = stack[-1] if stack else None
        stack.append(self.span_id)
        self._start_ns = time.time_ns()
        self._t0 = time.perf_counter_ns()
        self._tid = threading.get_ident()
        self._tracer._open_enter(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        dur_ns = time.perf_counter_ns() - self._t0
        stack = self._tracer._stack()
        if stack and stack[-1] == self.span_id:
            stack.pop()
        if exc_type is not None:
            self.args["error"] = exc_type.__name__
        self._tracer._open_exit(self)
        self._tracer._record(
            Span(
                name=self.name,
                cat=self.cat,
                start_ns=self._start_ns,
                dur_ns=dur_ns,
                pid=os.getpid(),
                tid=threading.get_ident(),
                span_id=self.span_id,
                parent_id=self.parent_id,
                args=self._tracer._merged_args(self.args),
            )
        )


class _TraceScope:
    """Re-establishes a parent span id + ambient attrs in this thread.

    Entering pushes ``parent_id`` (if any) onto the thread's span stack
    -- without recording a span of its own -- and merges ``ctx`` into
    the thread's ambient attributes, which :meth:`Tracer._merged_args`
    folds into every span/event recorded while the scope is live.  The
    canonical use is handing one request's ``(parent span, trace_id)``
    from an event loop into a worker thread.
    """

    __slots__ = ("_tracer", "_parent_id", "_ctx", "_pushed", "_prev_ctx")

    def __init__(self, tracer: "Tracer", parent_id: int | None, ctx: dict):
        self._tracer = tracer
        self._parent_id = parent_id
        self._ctx = ctx
        self._pushed = False
        self._prev_ctx: dict | None = None

    def __enter__(self) -> "_TraceScope":
        if self._parent_id is not None:
            self._tracer._stack().append(self._parent_id)
            self._pushed = True
        local = self._tracer._local
        self._prev_ctx = getattr(local, "ctx", None)
        merged = dict(self._prev_ctx) if self._prev_ctx else {}
        merged.update(self._ctx)
        local.ctx = merged
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._pushed:
            stack = self._tracer._stack()
            if stack and stack[-1] == self._parent_id:
                stack.pop()
        self._tracer._local.ctx = self._prev_ctx


class Tracer:
    """Collects spans and events; thread-safe; export via ``write_*``."""

    enabled = True

    def __init__(self):
        self._spans: list[Span] = []
        self._counters: list[CounterSample] = []
        self._open: dict[int, _ActiveSpan] = {}
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- internals ---------------------------------------------------------
    def _next_id(self) -> int:
        return next(self._ids)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    def _merged_args(self, args: dict) -> dict:
        """Fold this thread's ambient context (scope attrs) into ``args``."""
        ctx = getattr(self._local, "ctx", None)
        if not ctx:
            return args
        merged = dict(ctx)
        merged.update(args)
        return merged

    def _open_enter(self, active: "_ActiveSpan") -> None:
        with self._lock:
            self._open[active.span_id] = active

    def _open_exit(self, active: "_ActiveSpan") -> None:
        with self._lock:
            self._open.pop(active.span_id, None)

    # -- recording API -----------------------------------------------------
    def span(self, name: str, cat: str = "", **attrs) -> _ActiveSpan:
        """Context manager timing a nested region::

            with tracer.span("exec.sweep", cat="exec", jobs=12) as sp:
                ...
                sp.set(hits=3)
        """
        return _ActiveSpan(self, name, cat, attrs)

    def event(self, name: str, cat: str = "", **attrs) -> None:
        """Record an instant event under the current span."""
        stack = self._stack()
        self._record(
            Span(
                name=name,
                cat=cat,
                start_ns=time.time_ns(),
                dur_ns=None,
                pid=os.getpid(),
                tid=threading.get_ident(),
                span_id=self._next_id(),
                parent_id=stack[-1] if stack else None,
                args=self._merged_args(attrs),
            )
        )

    def counter(
        self,
        name: str,
        ts_ns: int | None = None,
        cat: str = "",
        pid: int | None = None,
        tid: int | None = None,
        **values,
    ) -> None:
        """Record one sample on the ``name`` counter track.

        Keyword ``values`` are the series within the track.  Pass
        ``ts_ns``/``pid``/``tid`` to replay samples observed in a worker
        process (mirrors :meth:`add_span`); omitted they default to now
        and the calling thread.
        """
        sample = CounterSample(
            name=name,
            ts_ns=ts_ns if ts_ns is not None else time.time_ns(),
            pid=pid if pid is not None else os.getpid(),
            tid=tid if tid is not None else threading.get_ident(),
            values=values,
            cat=cat,
        )
        with self._lock:
            self._counters.append(sample)

    def add_span(
        self,
        name: str,
        start_ns: int,
        dur_ns: int,
        cat: str = "",
        pid: int | None = None,
        tid: int | None = None,
        span_id: int | None = None,
        **attrs,
    ) -> int:
        """Synthesize a completed span observed elsewhere (worker processes).

        The span parents under the caller's *current* span, so pool jobs
        nest below the sweep that dispatched them even though they ran in
        another process; pass the worker's pid as ``tid`` to give each
        worker its own lane in trace viewers.  Returns the new span's id
        so callers can link later events back to it (the executor keeps
        the id of every ``exec.job`` span, and the autotuner's
        ``search.best`` events carry it as ``exec_span`` -- a served
        recommendation's trace walks back to the simulation that
        produced it).

        Passing ``span_id`` records the span under an id previously
        reserved with :meth:`new_span_id` -- the way a request's *root*
        span is recorded after its children already parented under it.
        """
        stack = self._stack()
        if span_id is None:
            span_id = self._next_id()
        self._record(
            Span(
                name=name,
                cat=cat,
                start_ns=start_ns,
                dur_ns=dur_ns,
                pid=pid if pid is not None else os.getpid(),
                tid=tid if tid is not None else threading.get_ident(),
                span_id=span_id,
                parent_id=stack[-1] if stack else None,
                args=self._merged_args(attrs),
            )
        )
        return span_id

    def new_span_id(self) -> int:
        """Reserve a span id without recording anything yet.

        Children can parent under the reserved id (via :meth:`scope`)
        before the owning span is recorded with
        ``add_span(span_id=reserved)`` -- required when the parent's
        duration is only known after its children ran (an HTTP request
        span closed at response time).
        """
        return self._next_id()

    def scope(self, parent_id: int | None = None, **ctx) -> _TraceScope:
        """Context manager re-establishing trace context in this thread.

        While entered, spans/events recorded in this thread parent under
        ``parent_id`` (when the thread has no deeper live span) and carry
        the ``ctx`` attributes (e.g. ``trace_id="..."``) merged into
        their args.  Scopes nest; inner scopes shadow outer keys.
        """
        return _TraceScope(self, parent_id, ctx)

    # -- reading & export --------------------------------------------------
    def spans(self) -> list[Span]:
        """Everything recorded so far (copy; spans and events)."""
        with self._lock:
            return list(self._spans)

    def counters(self) -> list[CounterSample]:
        """All counter samples recorded so far (copy)."""
        with self._lock:
            return list(self._counters)

    def open_spans(self) -> list[Span]:
        """Spans entered but never exited, frozen at their start time.

        Each is exported without a duration so post-mortem traces (a
        SIGTERM'd service, a crashed worker) still show what was in
        flight when the process wrote its trace.
        """
        with self._lock:
            live = list(self._open.values())
        return [
            Span(
                name=a.name,
                cat=a.cat,
                start_ns=a._start_ns,
                dur_ns=None,
                pid=os.getpid(),
                tid=a._tid,
                span_id=a.span_id,
                parent_id=a.parent_id,
                args=dict(a.args),
            )
            for a in live
        ]

    def write_jsonl(self, path, metrics: dict | None = None) -> None:
        """One JSON object per line; a final ``type: metrics`` line when
        a metrics snapshot is supplied."""
        dumps = json.dumps
        with open(path, "w") as f:
            for span in self.spans():
                f.write(dumps(span.to_json(), separators=(",", ":")) + "\n")
            for sample in self.counters():
                f.write(dumps(sample.to_json(), separators=(",", ":")) + "\n")
            for span in self.open_spans():
                row = span.to_json()
                row["type"] = "span"
                row["open"] = True
                f.write(dumps(row, separators=(",", ":")) + "\n")
            if metrics:
                f.write(
                    dumps({"type": "metrics", "metrics": metrics},
                          separators=(",", ":")) + "\n"
                )

    def write_chrome(self, path, metrics: dict | None = None) -> None:
        """Chrome trace-event JSON (load in ``chrome://tracing`` / Perfetto).

        Counter samples become ``ph: "C"`` counter tracks; open spans
        become unmatched ``ph: "B"`` begin events, which viewers render
        as running to the end of the trace.  The metrics snapshot rides
        along under a top-level ``metrics`` key, which viewers ignore.
        """
        events = [s.to_chrome() for s in self.spans()]
        events.extend(c.to_chrome() for c in self.counters())
        for span in self.open_spans():
            ev = span.to_chrome()
            ev["ph"] = "B"
            ev.pop("s", None)
            events.append(ev)
        doc: dict = {"traceEvents": events, "displayTimeUnit": "ms"}
        if metrics:
            doc["metrics"] = metrics
        with open(path, "w") as f:
            json.dump(doc, f)

    def write(self, path, metrics: dict | None = None) -> None:
        """Chrome trace-event JSON to a ``*.json`` path, JSON lines to
        any other (:func:`~repro.obs.report.load_trace_doc` reads both)."""
        if str(path).endswith(".json"):
            self.write_chrome(path, metrics=metrics)
        else:
            self.write_jsonl(path, metrics=metrics)


class _NullSpan:
    """The shared do-nothing span: ``with`` works, ``set()`` works."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def set(self, **attrs) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class _NullScope:
    """The shared do-nothing trace scope."""

    __slots__ = ()

    def __enter__(self) -> "_NullScope":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SCOPE = _NullScope()


class NullTracer:
    """The disabled tracer: every call is a no-op returning shared objects.

    ``span()`` hands back one process-wide singleton, so a disabled
    instrumentation site allocates nothing and writes nothing -- the
    property the ``<2%`` overhead guard in ``benchmarks/test_bench_obs.py``
    pins down.
    """

    enabled = False

    def span(self, name: str, cat: str = "", **attrs) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, cat: str = "", **attrs) -> None:
        return None

    def add_span(self, *args, **kwargs) -> None:
        return None  # no span exists, so there is no id to link to

    def counter(self, name: str, **kwargs) -> None:
        return None

    def new_span_id(self) -> None:
        return None  # nothing to reserve against

    def scope(self, parent_id=None, **ctx) -> _NullScope:
        return _NULL_SCOPE

    def spans(self) -> list[Span]:
        return []

    def counters(self) -> list[CounterSample]:
        return []

    def open_spans(self) -> list[Span]:
        return []


NULL_TRACER = NullTracer()

_tracer: Tracer | NullTracer = NULL_TRACER


def get_tracer() -> Tracer | NullTracer:
    """The process-wide tracer (the no-op :data:`NULL_TRACER` by default)."""
    return _tracer


def set_tracer(tracer: Tracer | NullTracer) -> None:
    """Install a process-wide tracer (pass :data:`NULL_TRACER` to disable)."""
    global _tracer
    _tracer = tracer


def start_tracing() -> Tracer:
    """Install and return a fresh recording :class:`Tracer`."""
    tracer = Tracer()
    set_tracer(tracer)
    return tracer


def stop_tracing() -> Tracer | NullTracer:
    """Restore the no-op default; returns the tracer that was active."""
    global _tracer
    previous = _tracer
    _tracer = NULL_TRACER
    return previous
