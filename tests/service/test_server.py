"""The HTTP front end, end to end over real sockets.

Each test boots a real :class:`TuningService` on an ephemeral port
inside ``asyncio.run`` and talks to it with the blocking
:class:`TuningClient` from executor threads -- exactly the production
topology, scaled down.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time

import pytest

import repro.service.server as server_mod
from repro.service.client import TuningClient
from repro.service.protocol import hierarchy_to_json
from repro.service.server import ServiceConfig, TuningService


def run_service(test_body, tmp_path, **config_over):
    """Boot a service on a free port, run ``test_body(client, service)``."""
    kwargs = dict(store_dir=str(tmp_path), port=0, concurrency=2,
                  queue_limit=4, drain_timeout=10.0)
    kwargs.update(config_over)
    config = ServiceConfig(**kwargs)

    async def main():
        service = TuningService(config)
        await service.start()
        client = TuningClient(port=service.port, timeout=60.0)
        loop = asyncio.get_event_loop()
        try:
            return await loop.run_in_executor(
                None, test_body, client, service
            )
        finally:
            await service.shutdown()

    return asyncio.run(main())


class _Capture:
    """A stream writer that keeps what the handler writes."""

    def __init__(self):
        self.data = b""

    def write(self, data: bytes) -> None:
        self.data += data

    async def drain(self) -> None:
        pass

    def close(self) -> None:
        pass


def exchange(service, chunks, delay: float = 0.0, eof: bool = True):
    """Feed raw request bytes to the service's connection handler.

    ``chunks`` arrive ``delay`` seconds apart on a reader with the
    socket server's default buffer limit, then EOF (unless ``eof`` is
    false).  Runs on the service's event loop; returns ``(status, JSON
    body)`` of the response.
    """
    async def go():
        reader = asyncio.StreamReader()
        writer = _Capture()

        async def feed():
            for chunk in chunks:
                reader.feed_data(chunk)
                await asyncio.sleep(delay)
            if eof:
                reader.feed_eof()

        feeder = asyncio.ensure_future(feed())
        try:
            await service._handle_conn(reader, writer)
        finally:
            feeder.cancel()
        head, _, body = writer.data.partition(b"\r\n\r\n")
        return int(head.split()[1]), json.loads(body)

    loop = service._server.get_loop()
    return asyncio.run_coroutine_threadsafe(go(), loop).result(timeout=60)


def jacobi_request(n: int = 32, **over):
    payload = {"kernel": "jacobi", "n": n, "budget": 4, "max_lines": 2}
    payload.update(over)
    return payload


class TestTuneEndpoint:
    def test_cold_then_warm_same_answer_no_recompute(self, tmp_path):
        def body(client, service):
            status, cold = client.tune(jacobi_request())
            assert status == 200 and cold["served"] == "computed"
            assert cold["recommendation"]["pads"]
            status, warm = client.tune(jacobi_request())
            assert status == 200 and warm["served"] == "store"
            # Identical answer, no second pipeline run.
            for field in ("recommendation", "evaluation", "key"):
                assert warm[field] == cold[field]
            m = client.metrics()
            assert m["counters"]["service.requests.computed"] == 1
            assert m["counters"]["service.requests.store"] == 1
            return cold["key"]

        run_service(body, tmp_path)

    def test_semantically_identical_spellings_one_computation(self, tmp_path):
        """The canonicalization property, observed through the server."""
        def body(client, service):
            from repro import ultrasparc_i

            spelling_a = jacobi_request()  # defaults implied
            spelling_b = {
                # shuffled key order, defaults explicit, hierarchy verbose
                "seed": 0,
                "hierarchy": hierarchy_to_json(ultrasparc_i()),
                "n": 32,
                "search": "coordinate",
                "budget": 4,
                "kernel": "jacobi",
                "max_lines": 2,
                "strategy": "L1&L2",
            }
            s1, r1 = client.tune(spelling_a)
            s2, r2 = client.tune(spelling_b)
            assert (s1, s2) == (200, 200)
            assert r1["key"] == r2["key"]
            assert r2["served"] == "store"  # one computation served both
            assert client.metrics()["counters"]["service.requests.computed"] == 1

        run_service(body, tmp_path)

    def test_single_flight_concurrent_identical_requests(
        self, tmp_path, monkeypatch
    ):
        """N racing identical requests -> exactly one pipeline run."""
        calls = []
        real = server_mod.run_tuning

        def slow_tuning(req, executor):
            calls.append(threading.get_ident())
            time.sleep(0.3)  # wide window for the racers to pile in
            return real(req, executor)

        monkeypatch.setattr(server_mod, "run_tuning", slow_tuning)

        def body(client, service):
            results = [None] * 5

            def one(i):
                results[i] = client.tune(jacobi_request())

            threads = [threading.Thread(target=one, args=(i,))
                       for i in range(5)]
            for t in threads:
                t.start()
                time.sleep(0.02)  # let the first request get admitted
            for t in threads:
                t.join()
            assert len(calls) == 1, "identical in-flight requests re-computed"
            served = sorted(payload["served"] for status, payload in results)
            assert all(status == 200 for status, _ in results)
            assert served.count("computed") == 1
            assert set(served) <= {"computed", "inflight", "store"}
            keys = {payload["key"] for _, payload in results}
            assert len(keys) == 1

        run_service(body, tmp_path)

    def test_no_wait_returns_job_id_to_poll(self, tmp_path):
        def body(client, service):
            status, accepted = client.tune(jacobi_request(), wait=False)
            assert status == 202
            key = accepted["job"]
            assert accepted["status"] in ("queued", "running")
            deadline = time.time() + 30
            while time.time() < deadline:
                status, job = client.job(key)
                assert status == 200
                if job["status"] == "done":
                    break
                time.sleep(0.05)
            assert job["status"] == "done"
            assert job["result"]["recommendation"]["pads"]
            # And the key is now warm for everyone.
            status, warm = client.tune(jacobi_request())
            assert status == 200 and warm["served"] == "store"

        run_service(body, tmp_path)

    def test_malformed_requests_get_400_with_reason(self, tmp_path):
        def body(client, service):
            status, err = client.tune({"kernel": "nope"})
            assert status == 400 and "unknown kernel" in err["error"]
            status, err = client.tune({})
            assert status == 400 and "exactly one of" in err["error"]
            status, err = client._request("POST", "/v1/tune", body=None)
            assert status == 400
            status, err = client._request("GET", "/v1/tune")
            assert status == 405
            status, err = client._request("GET", "/nothing/here")
            assert status == 404
            deep = b"[" * 200_000 + b"]" * 200_000
            for raw, want, reason in [
                (b"POST /v1/tune HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
                 400, "bad Content-Length"),
                (b"POST /v1/tune HTTP/1.1\r\nContent-Length: 100\r\n\r\n{}",
                 400, "body ended after 2 of 100 bytes"),
                (b"GET /healthz HTTP/1.1\r\nX-Long: " + b"a" * 100_000
                 + b"\r\n\r\n", 400, "too long"),
                (b"POST /v1/tune HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
                 % len(deep) + deep, 400, "not valid JSON"),
                (b"POST /v1/tune HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n",
                 413, "body exceeds"),
            ]:
                status, err = exchange(service, [raw])
                assert (status, reason in err["error"]) == (want, True), err
            assert not service._inflight, "a malformed request left an entry"
            status, health = client.healthz()
            assert status == 200 and health["inflight"] == 0

        run_service(body, tmp_path)

    def test_one_deadline_for_the_whole_head(self, tmp_path, monkeypatch):
        # Each header line arrives well within the deadline, but the
        # head as a whole does not: the request is cut off at 400.
        monkeypatch.setattr(server_mod, "_READ_TIMEOUT", 0.5)

        def body(client, service):
            lines = [b"GET /healthz HTTP/1.1\r\n"] + [b"X-Drip: 1\r\n"] * 50
            start = time.monotonic()
            status, err = exchange(service, lines, delay=0.05, eof=False)
            assert status == 400 and "timed out" in err["error"]
            assert time.monotonic() - start < 2.0

        run_service(body, tmp_path)


class TestBackpressure:
    def test_queue_full_answers_429(self, tmp_path, monkeypatch):
        release = threading.Event()
        real = server_mod.run_tuning

        def blocked_tuning(req, executor):
            release.wait(timeout=30)
            return real(req, executor)

        monkeypatch.setattr(server_mod, "run_tuning", blocked_tuning)

        def body(client, service):
            try:
                # Fill the queue (limit 1) with a blocked computation...
                status, accepted = client.tune(jacobi_request(16), wait=False)
                assert status == 202
                # ...then a *different* cold request must bounce.
                status, err = client.tune(jacobi_request(48), wait=False)
                assert status == 429
                assert "retry" in err["error"]
                assert err["queue_depth"] == 1
                # The identical request still joins in-flight (no 429).
                status, joined = client.tune(jacobi_request(16), wait=False)
                assert status == 202
                m = client.metrics()
                assert m["counters"]["service.requests.rejected_429"] == 1
            finally:
                release.set()
            # After release the queue drains and capacity returns.
            deadline = time.time() + 30
            while time.time() < deadline:
                status, job = client.job(accepted["job"])
                if job.get("status") == "done":
                    break
                time.sleep(0.05)
            status, _ = client.tune(jacobi_request(48))
            assert status == 200

        run_service(body, tmp_path, concurrency=1, queue_limit=1)

    def test_draining_answers_503_and_healthz_reports_it(self, tmp_path):
        def body(client, service):
            status, health = client.healthz()
            assert status == 200 and health["status"] == "ok"
            service._draining = True
            service.queue.draining = True
            status, err = client.tune(jacobi_request())
            assert status == 503
            status, health = client.healthz()
            assert health["status"] == "draining"
            m = client.metrics()
            assert m["counters"]["service.requests.rejected_503"] == 1

        run_service(body, tmp_path)


class TestIntrospection:
    def test_metrics_exposes_service_section(self, tmp_path):
        def body(client, service):
            client.tune(jacobi_request())
            m = client.metrics()
            svc = m["service"]
            assert svc["queue_limit"] == 4
            assert svc["queue_depth"] == 0
            assert svc["jobs"] == {"done": 1}
            assert svc["tuning_store"]["entries"] == 1
            assert svc["tuning_store"]["puts"] == 1
            assert "counters" in m and "gauges" in m

        run_service(body, tmp_path)

    def test_job_endpoint_404_for_unknown_key(self, tmp_path):
        def body(client, service):
            status, err = client.job("f" * 64)
            assert status == 404

        run_service(body, tmp_path)

    def test_job_endpoint_serves_store_only_keys(self, tmp_path):
        """A restarted server still answers for previously tuned keys."""
        def first(client, service):
            status, out = client.tune(jacobi_request())
            return out["key"]

        key = run_service(first, tmp_path)

        def second(client, service):
            status, job = client.job(key)
            assert status == 200 and job["status"] == "done"
            assert job["result"]["recommendation"]["pads"]
            # The tune endpoint is warm across restarts too.
            status, warm = client.tune(jacobi_request())
            assert status == 200 and warm["served"] == "store"

        run_service(second, tmp_path)

    def test_pipeline_error_maps_to_500_and_error_state(
        self, tmp_path, monkeypatch
    ):
        def broken_tuning(req, executor):
            raise RuntimeError("synthetic pipeline failure")

        monkeypatch.setattr(server_mod, "run_tuning", broken_tuning)

        def body(client, service):
            status, err = client.tune(jacobi_request())
            assert status == 500
            assert "synthetic pipeline failure" in err["error"]
            status, job = client.job(err["job"])
            assert job["status"] == "error"
            m = client.metrics()
            assert m["counters"]["service.errors"] == 1

        run_service(body, tmp_path)


class TestGracefulShutdown:
    def test_shutdown_completes_admitted_work(self, tmp_path):
        async def main():
            config = ServiceConfig(store_dir=str(tmp_path), port=0,
                                   concurrency=1, queue_limit=4,
                                   drain_timeout=30.0)
            service = TuningService(config)
            await service.start()
            client = TuningClient(port=service.port, timeout=60.0)
            loop = asyncio.get_event_loop()
            status, accepted = await loop.run_in_executor(
                None, lambda: client.tune(jacobi_request(), wait=False)
            )
            assert status == 202
            await service.shutdown()
            # The admitted job finished and was persisted before exit.
            state = service.jobs[accepted["job"]]
            assert state.status == "done"
            assert accepted["job"] in service.planner.store
            # Workers and executors are gone.
            assert all(t.done() for t in service._workers)

        asyncio.run(main())

    def test_shutdown_idempotent_on_idle_service(self, tmp_path):
        async def main():
            config = ServiceConfig(store_dir=str(tmp_path), port=0)
            service = TuningService(config)
            await service.start()
            await service.shutdown()

        asyncio.run(main())
