"""The service workload: a tuning-server process and its traffic generator.

The generator is one process with two threads, each owning one
connection at a time:

* **warm, open loop** -- a request every ``WARM_PERIOD_S`` (100 rps)
  drawn with the run's seed from the pre-warmed set, timed from the
  moment it was *due*, so a stall also charges the requests queued
  behind it; the thread's own lateness is reported as generator lag;
* **cold, closed loop** -- one caller sending never-seen requests back to
  back, a *cycle* of one request per ``COLD_KERNELS`` entry after another.
  Each request sends its kernel as inline IR with every array renamed
  (a prefix unique to the request), so each one runs the whole pipeline
  -- search, simulation, store writes -- yet every cycle costs the same:
  per-cycle rates compare directly and their median is the metric.
"""

from __future__ import annotations

import functools
import math
import os
import random
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from benchmarks.e2e.hostspeed import factor, probe_seconds

WARM_PERIOD_S = 0.01
SEARCH = {"budget": 8, "max_lines": 2}
PREWARM_KERNELS = (("jacobi", 160), ("dot", 16384), ("adi32", 32), ("erle64", 32))
PREWARM_SEEDS = (0, 1, 2, 3)
# Cold cycle: one request per kernel, at these sizes.  A cycle is ~0.9 s
# of tuning on an unloaded host, so a run sees several; expl's ~0.5 s
# hardly depends on its size.
COLD_KERNELS = {"jacobi": 100, "dot": 8192, "adi32": 16, "erle64": 16,
                "linpackd": 40, "expl": 48}
READY_TIMEOUT_S = 30.0
STOP_TIMEOUT_S = 60.0


def prewarm_requests(smoke: bool) -> list[dict]:
    seeds = PREWARM_SEEDS[:1] if smoke else PREWARM_SEEDS
    return [{"kernel": k, "n": n, "seed": s, **SEARCH}
            for k, n in PREWARM_KERNELS for s in seeds]


@functools.lru_cache(maxsize=None)
def _kernel_ir(kernel: str, n: int) -> dict:
    from repro.kernels.registry import get_kernel
    from repro.service.protocol import program_to_json

    return program_to_json(get_kernel(kernel).program(n))


def cold_request(i: int, seed: int) -> dict:
    """The ``i``-th cold request of a run: a cycle kernel as renamed IR.

    The program is named ``<kernel>/<n>``; array ``X`` is sent as
    ``<prefix>~X`` with a prefix unique to (seed, i).  A prefix keeps the
    arrays' name order, so every request of a kernel gets the same answer.
    """
    kernel = list(COLD_KERNELS)[i % len(COLD_KERNELS)]
    n = COLD_KERNELS[kernel]
    ir = _kernel_ir(kernel, n)
    prefix = f"c{seed}.{i}~"
    program = {
        "name": f"{kernel}/{n}",
        "arrays": [{**a, "name": prefix + a["name"]} for a in ir["arrays"]],
        "nests": [
            {**nest, "body": [
                {**st, "refs": [{**r, "array": prefix + r["array"]} for r in st["refs"]]}
                for st in nest["body"]
            ]}
            for nest in ir["nests"]
        ],
    }
    return {"program": program, "seed": 1000 + 100_000 * seed + i, **SEARCH}


class Server:
    """A ``python -m repro.service`` process on a free local port.

    With ``ledger_path`` the server runs under :mod:`benchmarks.e2e.serve`,
    which adds the benchmark's layer wrappers and writes the ledger and
    its trace to ``ledger_path`` / ``trace_path`` on shutdown.
    """

    def __init__(self, root, store_dir, log_path, ledger_path=None,
                 trace_path=None, extra_args=()):
        service_args = ["--port", "0", "--store-dir", str(store_dir), *extra_args]
        if ledger_path is None:
            cmd = [sys.executable, "-m", "repro.service", *service_args]
        else:
            cmd = [sys.executable, "-m", "benchmarks.e2e.serve",
                   "--ledger", str(ledger_path), "--trace-out", str(trace_path),
                   "--", *service_args]
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
        self._log = open(log_path, "w")
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=self._log,
            text=True,
        )
        self.ledger_path = ledger_path
        self.port = self._read_port()

    def _read_port(self) -> int:
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.1)
            if ready:
                line = self.proc.stdout.readline()
                if line.startswith("[service] listening on"):
                    return int(line.split()[3].rsplit(":", 1)[1])
                if not line and self.proc.poll() is not None:
                    break
        self.stop()
        with open(self._log.name) as log:
            tail = log.read()[-2000:]
        raise RuntimeError(f"tuning server did not start:\n{tail}")

    def reset_ledger(self) -> None:
        """Start the traced server's ledger afresh and wait for the ack."""
        ack = f"{self.ledger_path}.reset"
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + READY_TIMEOUT_S
        while not os.path.exists(ack):
            if time.monotonic() > deadline:
                raise RuntimeError("traced server did not acknowledge the reset")
            time.sleep(0.005)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """SIGTERM (the service drains and exits 0), then wait; kill if stuck."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        self._log.close()


def tune(client, request: dict) -> tuple[int, dict]:
    """One request; a connection failure reads as status 0."""
    from repro.service.client import ServiceClientError

    try:
        return client.tune(request)
    except ServiceClientError as exc:
        return 0, {"error": str(exc)}


@dataclass
class WarmSample:
    request: dict
    status: int
    from_due: float   # seconds from when the request was due to its reply
    from_send: float  # seconds from when it was actually sent
    lag: float        # how late the generator sent it
    payload: dict = field(repr=False)


@dataclass
class ColdSample:
    request: dict
    status: int
    seconds: float
    payload: dict = field(repr=False)


@dataclass
class Cycle:
    """One complete cold cycle: its wall time, the refs it simulated and
    the host-speed factor of the probes around it."""

    seconds: float
    sim_refs: int
    host_factor: float


@dataclass
class Traffic:
    warm: list[WarmSample]
    cold: list[ColdSample]
    cycles: list[Cycle]


def _sim_refs(client) -> int:
    return client.metrics().get("counters", {}).get("sim.refs", 0)


def drive(port: int, seed: int, seconds: float, warm_pool: list[dict]) -> Traffic:
    """Run the warm open loop and the cold closed loop for ``seconds``."""
    from repro.service.client import TuningClient

    rng = random.Random(seed)
    draws = [rng.choice(warm_pool) for _ in range(int(seconds / WARM_PERIOD_S))]
    warm: list[WarmSample] = []
    cold: list[ColdSample] = []
    cycles: list[Cycle] = []
    start = time.perf_counter() + 0.05
    end = start + seconds

    def open_loop():
        client = TuningClient(port=port, timeout=STOP_TIMEOUT_S)
        for k, request in enumerate(draws):
            due = start + k * WARM_PERIOD_S
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            status, payload = tune(client, request)
            done = time.perf_counter()
            warm.append(WarmSample(request, status, done - due, done - sent,
                                   sent - due, payload))

    def closed_loop():
        client = TuningClient(port=port, timeout=STOP_TIMEOUT_S)
        refs = _sim_refs(client)
        probe = probe_seconds()
        delay = start - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        cycle_start = time.perf_counter()
        i = 0
        # At least one whole cycle, however short the run.
        while time.perf_counter() < end or i < len(COLD_KERNELS):
            request = cold_request(i, seed)
            i += 1
            sent = time.perf_counter()
            status, payload = tune(client, request)
            done = time.perf_counter()
            cold.append(ColdSample(request, status, done - sent, payload))
            if i % len(COLD_KERNELS) == 0:
                # The counter read and the probe sit between cycles, outside both.
                before, refs = refs, _sim_refs(client)
                earlier, probe = probe, probe_seconds()
                cycles.append(Cycle(done - cycle_start, refs - before,
                                    factor(earlier, probe)))
                cycle_start = time.perf_counter()

    threads = [threading.Thread(target=open_loop, name="warm"),
               threading.Thread(target=closed_loop, name="cold")]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=seconds + 2 * STOP_TIMEOUT_S)
        if t.is_alive():
            raise RuntimeError(f"{t.name} traffic thread did not finish")
    return Traffic(warm, cold, cycles)


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile of a non-empty collection."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def summarize(traffic: Traffic, before: dict, after: dict,
              peak_rss_mb: float) -> tuple[dict, int, int]:
    """``(metrics, attempted, failed)`` of one timed phase.

    ``before`` and ``after`` are the server's ``/metrics`` snapshots
    around the phase.  Cold rates are medians over cycles, each cycle's
    time divided by its host-speed factor, like sweep rounds.
    """
    def delta(name: str) -> float:
        return (after.get("counters", {}).get(name, 0)
                - before.get("counters", {}).get(name, 0))

    def hist(snapshot: dict, name: str) -> dict:
        return snapshot.get("histograms", {}).get(name, {})

    warm_ok = [s for s in traffic.warm if s.status == 200]
    cold_ok = [s for s in traffic.cold if s.status == 200]
    attempted = len(traffic.warm) + len(traffic.cold)
    failed = attempted - len(warm_ok) - len(cold_ok)
    scaled = [c.seconds / c.host_factor for c in traffic.cycles]
    from_due = [s.from_due for s in warm_ok] or [0.0]
    warm_server_p50 = hist(after, "service.warm_seconds").get("p50", 0.0)
    cold_count = (hist(after, "service.cold_seconds").get("count", 0)
                  - hist(before, "service.cold_seconds").get("count", 0))
    cold_total = (hist(after, "service.cold_seconds").get("total", 0.0)
                  - hist(before, "service.cold_seconds").get("total", 0.0))
    metrics = {
        "jobs_per_s": len(COLD_KERNELS) / statistics.median(scaled),
        "mrefs_per_s": statistics.median(
            c.sim_refs / s for c, s in zip(traffic.cycles, scaled)) / 1e6,
        # The mean cold tuning of the median cycle.  Warm latency swings
        # 10-35% from run to run (GIL convoys behind cold work, amplified
        # by the single-connection open loop), too wide for a bound; it is
        # reported per layer below.
        "latency_ms": 1000.0 * statistics.median(scaled) / len(COLD_KERNELS),
        "peak_rss_mb": peak_rss_mb,
        "service.warm_p50_ms": 1000.0 * percentile(from_due, 50),
        "service.warm_p99_ms": 1000.0 * percentile(from_due, 99),
        "service.cold_p50_ms": 1000.0 * percentile(
            [s.seconds for s in cold_ok] or [0.0], 50),
        "service.gen_lag_ms": 1000.0 * percentile([s.lag for s in traffic.warm], 99),
        "service.warm_server_p50_ms": 1000.0 * warm_server_p50,
        "service.cold_server_mean_ms":
            1000.0 * cold_total / cold_count if cold_count else 0.0,
        "service.store_served": delta("service.requests.store"),
        "service.computed": delta("service.requests.computed"),
        "service.rejected": sum(delta(f"service.requests.{kind}") for kind in
                                ("rejected", "rejected_429", "rejected_503")),
        "service.http_overhead_ms": 1000.0 * (
            percentile([s.from_send for s in warm_ok], 50) - warm_server_p50
        ) if warm_ok else 0.0,
    }
    return metrics, attempted, failed
