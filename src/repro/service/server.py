"""The asyncio HTTP front end of the tuning service.

One :class:`TuningService` owns the whole request path:

* ``POST /v1/tune`` -- canonicalize the JSON body to its tuning key,
  then the cheapest sufficient answer wins: a **warm** key replays the
  stored response (``served: "store"``); a key already being computed
  joins that computation (**single-flight**, ``served: "inflight"``) --
  never a second pipeline run for the same question; only a genuinely
  **cold** key is admitted to the bounded queue (429 when full, 503
  when draining) and computed (``served: "computed"``).  ``?wait=0``
  returns 202 immediately with the job id (the tuning key) to poll.
* ``GET /v1/jobs/<id>`` -- the lifecycle of one key: queued / running /
  done / error, with the response payload once done.
* ``GET /metrics`` -- the live process-wide metrics snapshot plus a
  service section (queue depth, in-flight count, per-outcome request
  counters); the CI smoke job asserts warm requests through the
  ``service.requests.store`` counter here.
* ``GET /healthz`` -- liveness + readiness ("ok" until draining).

Tuning work is CPU-bound, so the event loop never computes: each of
``concurrency`` async workers owns a dedicated
:class:`~repro.exec.executor.SweepExecutor` (all sharing one result
store directory -- safe, see the store's concurrency contract) and runs
the pipeline in a thread pool, pulling admitted requests cheapest-first
from the :class:`~repro.service.queue.TuningQueue`.

The HTTP layer is deliberately minimal stdlib asyncio: HTTP/1.1,
``Connection: close``, JSON in/out.  It is an internal tool surface,
not a general web server.  A request's head and body are read under
one deadline, and a malformed one -- a bad or negative
``Content-Length``, a body shorter than it, an over-long header line,
JSON nested too deep to decode -- is answered 400 (413 for an
oversized body) with a reason.
"""

from __future__ import annotations

import asyncio
import json
import signal
import time
import urllib.parse
import uuid
from dataclasses import dataclass, field
from concurrent.futures import ThreadPoolExecutor

from repro.exec.executor import SweepExecutor
from repro.exec.store import ResultStore
from repro.obs.metrics import get_metrics
from repro.obs.prometheus import format_prometheus
from repro.obs.tracer import get_tracer, start_tracing
from repro.service.pipeline import run_tuning, run_tuning_traced
from repro.service.planner import RequestPlanner, TuningStore, TUNINGS_DIRNAME
from repro.service.protocol import ProtocolError
from repro.service.queue import ServiceDraining, ServiceSaturated, TuningQueue

__all__ = ["ServiceConfig", "TuningService", "serve"]

MAX_BODY_BYTES = 4 * 1024 * 1024
_READ_TIMEOUT = 30.0

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclass
class ServiceConfig:
    """Everything one server instance needs to know."""

    store_dir: str
    host: str = "127.0.0.1"
    port: int = 8077
    concurrency: int = 2       # tuning workers (each its own executor)
    queue_limit: int = 8       # max queued+running cold requests
    sim_workers: int = 1       # simulation processes per executor
    backend: str = "sim"
    drain_timeout: float = 60.0
    trace_path: str | None = None   # write a trace file on shutdown
    trace_format: str = "jsonl"     # "jsonl" | "chrome"

    def __post_init__(self) -> None:
        if self.concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {self.concurrency}")
        if self.sim_workers < 1:
            raise ValueError(f"sim_workers must be >= 1, got {self.sim_workers}")


@dataclass
class _JobState:
    """Lifecycle record of one tuning key."""

    status: str                      # queued | running | done | error
    queued_at: float
    started_at: float | None = None
    finished_at: float | None = None
    error: str | None = None
    result: dict | None = field(default=None, repr=False)

    def to_json(self, key: str) -> dict:
        out = {"job": key, "status": self.status, "queued_at": self.queued_at}
        if self.started_at is not None:
            out["started_at"] = self.started_at
        if self.finished_at is not None:
            out["finished_at"] = self.finished_at
        if self.error is not None:
            out["error"] = self.error
        if self.result is not None:
            out["result"] = self.result
        return out


class TuningService:
    """The long-running tuning server (see module docstring)."""

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.planner = RequestPlanner(
            TuningStore(f"{config.store_dir}/{TUNINGS_DIRNAME}")
        )
        self.queue = TuningQueue(limit=config.queue_limit)
        self.jobs: dict[str, _JobState] = {}
        self._inflight: dict[str, asyncio.Future] = {}
        self._metrics = get_metrics()
        self._pool = ThreadPoolExecutor(
            max_workers=config.concurrency, thread_name_prefix="tune"
        )
        self._executors: list[SweepExecutor] = []
        self._workers: list[asyncio.Task] = []
        self._server: asyncio.base_events.Server | None = None
        self._started = time.time()
        self._draining = False

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket and spin up the tuning workers."""
        for _ in range(self.config.concurrency):
            executor = SweepExecutor(
                workers=self.config.sim_workers,
                store=ResultStore(self.config.store_dir),
                backend=self.config.backend,
            )
            self._executors.append(executor)
            self._workers.append(asyncio.ensure_future(self._worker(executor)))
        self._server = await asyncio.start_server(
            self._handle_conn, host=self.config.host, port=self.config.port
        )

    @property
    def port(self) -> int:
        """The bound port (useful when configured with port 0)."""
        assert self._server is not None, "service not started"
        return self._server.sockets[0].getsockname()[1]

    async def shutdown(self) -> None:
        """Graceful drain: stop accepting, finish admitted work, close."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self.queue.stop(workers=len(self._workers))
        if self._workers:
            done, pending = await asyncio.wait(
                self._workers, timeout=self.config.drain_timeout
            )
            for task in pending:
                task.cancel()
        # Unblock any handler still awaiting a future that will never
        # resolve (its worker was cancelled mid-drain).
        for key, fut in list(self._inflight.items()):
            if not fut.done():
                fut.set_result({"error": "server shut down", "job": key})
        self._pool.shutdown(wait=True)
        for executor in self._executors:
            executor.close()

    # -- tuning workers ------------------------------------------------------

    async def _worker(self, executor: SweepExecutor) -> None:
        loop = asyncio.get_event_loop()
        while True:
            item = await self.queue.get()
            if item is None:
                return
            state = self.jobs[item.key]
            state.status = "running"
            state.started_at = time.time()
            self._gauges()
            tracer = get_tracer()
            if tracer.enabled and item.trace_id is not None:
                # The wait is over exactly now; the span is synthesized
                # (no awaits inside the scope -- the event loop thread's
                # span stack must not leak across tasks).
                with tracer.scope(parent_id=item.parent_span,
                                  trace_id=item.trace_id):
                    tracer.add_span(
                        "service.queue_wait", cat="service",
                        start_ns=item.admitted_ns,
                        dur_ns=max(0, time.time_ns() - item.admitted_ns),
                        key=item.key[:12],
                    )
            try:
                # ``run_tuning`` is resolved here (not at import) so tests
                # that patch this module's attribute still intercept it.
                payload = await loop.run_in_executor(
                    self._pool, run_tuning_traced, item.request, executor,
                    item.trace_id, item.parent_span, run_tuning,
                )
                payload["key"] = item.key
                self.planner.complete(item.key, payload)
                state.status = "done"
                state.result = payload
                self._metrics.counter("service.requests.computed").inc()
                self._metrics.histogram("service.cold_seconds").observe(
                    time.time() - state.queued_at
                )
                outcome = dict(payload)
            except Exception as exc:  # pipeline bug or bad interaction
                state.status = "error"
                state.error = f"{type(exc).__name__}: {exc}"
                self._metrics.counter("service.errors").inc()
                outcome = {"error": state.error, "job": item.key}
            finally:
                state.finished_at = time.time()
                self.queue.done()
                self._inflight.pop(item.key, None)
                self._gauges()
            if not item.future.done():
                item.future.set_result(outcome)

    def _gauges(self) -> None:
        self._metrics.gauge("service.queue_depth").set(self.queue.depth)
        self._metrics.gauge("service.inflight").set(len(self._inflight))

    # -- request handling ----------------------------------------------------

    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        try:
            status, payload = await self._handle_request(reader)
        except asyncio.TimeoutError:
            status, payload = 400, {"error": "request read timed out"}
        except Exception as exc:
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        if isinstance(payload, str):
            # Prometheus text exposition (or any other plain-text body).
            body = payload.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            body = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode("ascii")
        try:
            writer.write(head + body)
            await writer.drain()
        except (ConnectionError, OSError):
            pass  # client went away; nothing to salvage
        finally:
            writer.close()

    async def _handle_request(self, reader) -> tuple[int, dict]:
        length = 0
        try:
            # One deadline for the whole head and body: a client that
            # drips header lines cannot hold the connection open.
            async with asyncio.timeout(_READ_TIMEOUT):
                parts = (await reader.readline()).decode("latin-1").split()
                if len(parts) < 2:
                    return 400, {"error": "malformed request line"}
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = line.decode("latin-1").partition(":")
                    if name.strip().lower() == "content-length":
                        try:
                            length = int(value.strip())
                        except ValueError:
                            length = -1
                        if length < 0:
                            return 400, {"error": "bad Content-Length"}
                if length > MAX_BODY_BYTES:
                    return 413, {"error": f"body exceeds {MAX_BODY_BYTES} bytes"}
                body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            return 400, {"error": f"body ended after {len(exc.partial)} of "
                                  f"{length} bytes"}
        except ValueError:  # a line overran the reader's buffer limit
            return 400, {"error": "request line or header too long"}
        method, target = parts[0].upper(), parts[1]
        parsed = urllib.parse.urlsplit(target)
        query = urllib.parse.parse_qs(parsed.query)
        return await self._route(method, parsed.path, query, body)

    async def _route(self, method: str, path: str, query: dict,
                     body: bytes) -> tuple[int, dict]:
        self._metrics.counter("service.http_requests").inc()
        if path == "/healthz" and method == "GET":
            return 200, {
                "status": "draining" if self._draining else "ok",
                "uptime_s": time.time() - self._started,
                "inflight": len(self._inflight),
            }
        if path == "/metrics" and method == "GET":
            fmt = query.get("format", ["json"])[0]
            if fmt == "prometheus":
                return 200, self._prometheus_text()
            if fmt != "json":
                return 400, {"error": f"unknown metrics format {fmt!r} "
                                      "(json or prometheus)"}
            snap = self._metrics.snapshot()
            snap["service"] = self._service_section()
            return 200, snap
        if path.startswith("/v1/jobs/") and method == "GET":
            return self._job_status(path[len("/v1/jobs/"):])
        if path == "/v1/tune":
            if method != "POST":
                return 405, {"error": "POST a tuning request to /v1/tune"}
            try:
                payload = json.loads(body.decode("utf-8"))
            except (ValueError, UnicodeDecodeError, RecursionError) as exc:
                return 400, {"error": f"body is not valid JSON: {exc}"}
            wait = query.get("wait", ["1"])[0] not in ("0", "false", "no")
            return await self._tune(payload, wait)
        return 404, {"error": f"no route for {method} {path}"}

    def _prometheus_text(self) -> str:
        """The Prometheus exposition: registry metrics plus scrape-time
        service gauges (uptime, drain state, queue bound, store size)."""
        snap = self._metrics.snapshot()
        gauges = snap.setdefault("gauges", {})
        section = self._service_section()
        gauges["service.uptime_seconds"] = section["uptime_s"]
        gauges["service.draining"] = 1 if section["draining"] else 0
        gauges["service.queue_depth"] = section["queue_depth"]
        gauges["service.queue_limit"] = section["queue_limit"]
        gauges["service.inflight"] = section["inflight"]
        gauges["service.tuning_store.entries"] = (
            section["tuning_store"]["entries"]
        )
        return format_prometheus(snap)

    def _service_section(self) -> dict:
        by_status: dict[str, int] = {}
        for state in self.jobs.values():
            by_status[state.status] = by_status.get(state.status, 0) + 1
        return {
            "uptime_s": time.time() - self._started,
            "draining": self._draining,
            "queue_depth": self.queue.depth,
            "queue_limit": self.queue.limit,
            "inflight": len(self._inflight),
            "jobs": by_status,
            "tuning_store": {
                "entries": len(self.planner.store),
                "hits": self.planner.store.hits,
                "misses": self.planner.store.misses,
                "puts": self.planner.store.puts,
            },
        }

    def _job_status(self, key: str) -> tuple[int, dict]:
        state = self.jobs.get(key)
        if state is not None:
            return 200, state.to_json(key)
        stored = self.planner.lookup(key)
        if stored is not None:
            return 200, {"job": key, "status": "done", "result": stored}
        return 404, {"error": f"unknown job {key!r}"}

    def _finish_request_span(self, trace_id, root_id, start_ns, key,
                             served, status) -> None:
        """Record the ``http.request`` root span under its reserved id.

        Children (queue wait, pipeline, simulator spans) already
        parented under ``root_id`` while the request ran; the root
        itself can only be recorded now, when its duration is known.
        """
        tracer = get_tracer()
        if not tracer.enabled or root_id is None:
            return
        tracer.add_span(
            "http.request", cat="service",
            start_ns=start_ns,
            dur_ns=max(0, time.time_ns() - start_ns),
            span_id=root_id,
            trace_id=trace_id,
            path="/v1/tune",
            key=key[:12],
            served=served,
            status=status,
        )

    async def _tune(self, payload, wait: bool) -> tuple[int, dict]:
        try:
            key, request = self.planner.plan(payload)
        except ProtocolError as exc:
            self._metrics.counter("service.requests.rejected").inc()
            return 400, {"error": str(exc)}

        tracer = get_tracer()
        trace_id = root_id = None
        start_ns = 0
        if tracer.enabled:
            # Mint this request's trace context: an id that will stamp
            # every span it causes, and a reserved root span id its
            # children parent under across threads and processes.
            trace_id = uuid.uuid4().hex[:16]
            root_id = tracer.new_span_id()
            start_ns = time.time_ns()

        t0 = time.time()
        stored = self.planner.lookup(key)
        if stored is not None:
            self._metrics.counter("service.requests.store").inc()
            self._metrics.histogram("service.warm_seconds").observe(
                time.time() - t0
            )
            self._finish_request_span(trace_id, root_id, start_ns, key,
                                      "store", 200)
            extra = {"trace_id": trace_id} if trace_id else {}
            return 200, {**stored, "served": "store", **extra}

        fut = self._inflight.get(key)
        if fut is None:
            try:
                if self._draining:
                    raise ServiceDraining("server is draining")
                fut = asyncio.get_event_loop().create_future()
                self.queue.admit(key, request, fut,
                                 trace_id=trace_id, parent_span=root_id)
            except (ServiceSaturated, ServiceDraining) as exc:
                self._metrics.counter(
                    f"service.requests.rejected_{exc.status}"
                ).inc()
                self._finish_request_span(trace_id, root_id, start_ns, key,
                                          "rejected", exc.status)
                return exc.status, {
                    "error": str(exc),
                    "queue_depth": self.queue.depth,
                    "queue_limit": self.queue.limit,
                }
            self._inflight[key] = fut
            self.jobs[key] = _JobState(status="queued", queued_at=t0)
            self._metrics.counter("service.requests.admitted").inc()
            self._gauges()
            served = "computed"
        else:
            # Single-flight: identical request already being computed.
            self._metrics.counter("service.requests.joined").inc()
            served = "inflight"

        if not wait:
            self._finish_request_span(trace_id, root_id, start_ns, key,
                                      "accepted", 202)
            extra = {"trace_id": trace_id} if trace_id else {}
            return 202, {"job": key, "status": self.jobs[key].status, **extra}
        outcome = await fut
        if "error" in outcome:
            self._finish_request_span(trace_id, root_id, start_ns, key,
                                      "error", 500)
            return 500, outcome
        self._finish_request_span(trace_id, root_id, start_ns, key,
                                  served, 200)
        extra = {"trace_id": trace_id} if trace_id else {}
        return 200, {**outcome, "served": served, **extra}


async def serve(config: ServiceConfig) -> int:
    """Run a server until SIGTERM/SIGINT; returns the process exit code."""
    if config.trace_path is not None:
        start_tracing()
    service = TuningService(config)
    await service.start()
    print(
        f"[service] listening on {config.host}:{service.port} "
        f"store={config.store_dir} concurrency={config.concurrency} "
        f"queue_limit={config.queue_limit} backend={config.backend}",
        flush=True,
    )
    stop = asyncio.Event()
    loop = asyncio.get_event_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, stop.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # non-unix event loop; rely on KeyboardInterrupt
    await stop.wait()
    print("[service] draining...", flush=True)
    await service.shutdown()
    if config.trace_path is not None:
        tracer = get_tracer()
        metrics = get_metrics().snapshot()
        if config.trace_format == "chrome":
            tracer.write_chrome(config.trace_path, metrics=metrics)
        else:
            tracer.write_jsonl(config.trace_path, metrics=metrics)
        print(
            f"[service] trace: {len(tracer.spans())} spans, "
            f"{len(tracer.counters())} counter samples -> {config.trace_path}",
            flush=True,
        )
    print("[service] shutdown complete", flush=True)
    return 0
