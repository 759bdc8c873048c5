"""The four workloads: set-up, timed phase and correctness checks.

A sweep workload's timed phase repeats one *round* -- a cold sweep of
the Figure 9 programs, a cold fuzz sweep, or a warm replay -- and starts
another only while it is expected to end within ``--seconds``; it
always runs at least one.  The metrics are medians over rounds, so a
burst of host noise spoils one round, not the run.  A round is made of
*steps* (one per Figure 9 program, one per fuzz hierarchy); the
host-speed probe (:mod:`benchmarks.e2e.hostspeed`) runs between steps
and every step's time is divided by its factor.

The whole full-size Figure 9 (24 programs, 255M refs) takes 25 s on an
unloaded host and over 45 s on a loaded one, while a run should last
about ``--seconds`` whatever the load, so a round is the full-size rows
of ``FIG9_PROGRAMS``: big traces and small, on the same hierarchy, ~6 s.

The fuzzed population is pinned (programs ``FUZZ_BASE_SEED ..
FUZZ_BASE_SEED + FUZZ_PROGRAMS - 1``, the first of the ``ext_symbolic``
cross-validation programs); the run's seed only permutes the job order.
Disjoint populations differ too much in cost to compare runs: three
500-program populations took 9.8, 13.8 and 10.8 s cold.
"""

from __future__ import annotations

import contextlib
import json
import pathlib
import random
import resource
import shutil
import statistics
import tempfile
import time
import traceback

from benchmarks.e2e import reference
from benchmarks.e2e.hostspeed import factor, probe_seconds
from benchmarks.e2e.layers import Ledger, installed, layer_metrics

ROOT = pathlib.Path(__file__).resolve().parents[2]
OUT_DIR = ROOT / ".bench_out"

# expl: 36M refs in 3 jobs; jacobi, erle64 (intra-padded first), mgrid:
# 7-8M refs each.  58M refs in 12 jobs.
FIG9_PROGRAMS = ["expl", "jacobi", "erle64", "mgrid"]
FIG9_SMOKE_PROGRAMS = ["adi32", "dot", "jacobi"]
FUZZ_BASE_SEED = 0
FUZZ_PROGRAMS = 100
FUZZ_SMOKE_PROGRAMS = 12

# Service-only per-layer metrics; the sweeps report them as 0.
SERVICE_LAYER_METRICS = (
    "service.warm_p50_ms", "service.warm_p99_ms", "service.cold_p50_ms",
    "service.gen_lag_ms", "service.warm_server_p50_ms",
    "service.cold_server_mean_ms", "service.store_served", "service.computed",
    "service.rejected", "service.queue_depth_peak", "service.http_overhead_ms",
)


def fresh_dir(prefix: str) -> pathlib.Path:
    """A new empty directory under the checkout's ``.bench_out``."""
    OUT_DIR.mkdir(exist_ok=True)
    return pathlib.Path(tempfile.mkdtemp(prefix=f"{prefix}-", dir=OUT_DIR))


def fuzz_jobs(smoke: bool, seed: int | None = None) -> list:
    """The pinned fuzzed population against the three cross-validation
    hierarchies, tagged ``(case_seed, hierarchy name)``: one group per
    hierarchy, each shuffled by ``seed`` when one is given."""
    from repro.exec.jobs import SimJob
    from repro.experiments.ext_symbolic import CROSSVAL_HIERARCHIES
    from repro.fuzz import FuzzConfig, fuzzed_workloads

    count = FUZZ_SMOKE_PROGRAMS if smoke else FUZZ_PROGRAMS
    config = FuzzConfig(max_refs=200_000, max_trip=96)
    population = fuzzed_workloads(FUZZ_BASE_SEED, count, config)
    rng = random.Random(seed)
    jobs = []
    for name, hierarchy in CROSSVAL_HIERARCHIES.items():
        group = [SimJob(program, layout, hierarchy, tag=(case_seed, name))
                 for case_seed, program, layout in population]
        if seed is not None:
            rng.shuffle(group)
        jobs += group
    return jobs


def fuzz_key(job) -> str:
    return f"{job.tag[0]}/{job.tag[1]}"


class Workload:
    """One workload in one process: ``setup``, ``run``, ``check``, ``close``."""

    name = ""

    def __init__(self, seed: int, seconds: float, smoke: bool,
                 trace_out: pathlib.Path | None = None):
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        # A traced run records its layers and writes their spans to trace_out.
        self.trace_out = trace_out
        self.ledger = Ledger() if trace_out is not None else None
        self.metrics: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.checked = 0
        self.wrong: list[str] = []
        self.round_walls: list[float] = []   # host seconds per round
        self.host_factors: list[float] = []  # hostspeed.factor per round
        self._dirs: list[pathlib.Path] = []

    def fresh_dir(self, prefix: str) -> pathlib.Path:
        path = fresh_dir(prefix)
        self._dirs.append(path)
        return path

    def setup(self) -> None:
        """Everything before the timed phase (counted in ``setup_s``)."""

    def run(self) -> None:
        """The timed phase; fills :attr:`metrics`."""
        raise NotImplementedError

    def check(self) -> None:
        """Compare results with the references (untimed)."""
        raise NotImplementedError

    def layers(self) -> tuple[dict, float, str]:
        """``(ledger json, wall the layers add up to, its label)``."""
        return self.ledger.to_json(), sum(self.round_walls), "timed wall"

    def layer_metrics(self) -> dict[str, float]:
        ledger_json, wall, _ = self.layers()
        return layer_metrics(ledger_json, wall)

    def close(self) -> None:
        """Release processes and scratch space; write the trace if traced."""
        for path in self._dirs:
            shutil.rmtree(path, ignore_errors=True)


class Sweep(Workload):
    """A workload whose rounds are ``SweepExecutor`` sweeps.

    Subclasses set :attr:`jobs` (in result order), :attr:`keys` and
    :attr:`expected` in ``setup``, and implement ``prepare`` (untimed:
    returns the round's steps), ``execute`` (one timed step: returns its
    results and the executor's job records) and ``finish`` (untimed).
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.jobs: list = []
        self.keys: list[str] = []
        self.expected: dict = {}
        self.outputs: list[list] = []
        self._probe = 0.0  # the latest host-speed probe

    def prepare(self) -> list:
        raise NotImplementedError

    def execute(self, step) -> tuple[list, list]:
        raise NotImplementedError

    def finish(self) -> None:
        pass

    def _traced(self, r: int):
        if self.ledger is None:
            return contextlib.nullcontext()
        stack = contextlib.ExitStack()
        stack.enter_context(installed(self.ledger))
        stack.enter_context(self.ledger.tracer.span(
            "bench.step", cat="bench", workload=self.name, round=r))
        return stack

    def _round(self) -> tuple[float, float, list, list]:
        """Run one round's steps; ``(wall, host-scaled wall, results, records)``.

        The probe after each step is also the one before the next, across
        rounds too.
        """
        wall = scaled = 0.0
        results, records = [], []
        start = time.perf_counter()
        try:
            for step in self.prepare():
                with self._traced(len(self.round_walls)):
                    t0 = time.perf_counter()
                    out, recs = self.execute(step)
                    seconds = time.perf_counter() - t0
                before, self._probe = self._probe, probe_seconds()
                wall += seconds
                scaled += seconds / factor(before, self._probe)
                results += out
                records += recs
        except Exception:
            traceback.print_exc()
            wall = scaled = time.perf_counter() - start
            results, records = [None] * len(self.jobs), []
        self.finish()
        return wall, scaled, results, records

    def run(self) -> None:
        rates = []  # (jobs answered, distinct refs) per host-scaled second
        start = time.perf_counter()
        self._probe = probe_seconds()
        while True:
            round_start = time.perf_counter()
            wall, scaled, results, records = self._round()
            self.round_walls.append(wall)
            self.host_factors.append(wall / scaled)
            self.outputs.append(results)
            answered = sum(r is not None for r in results)
            self.attempted += len(results)
            self.failed += len(results) - answered
            # In-run duplicates share one store key; their refs count once.
            distinct = {record.key: result.total_refs
                        for result, record in zip(results, records)
                        if result is not None}
            rates.append((answered / scaled, sum(distinct.values()) / scaled))
            # Stop unless another round like this one ends within --seconds.
            now = time.perf_counter()
            if now + (now - round_start) - start > self.seconds:
                break
        self.metrics.update(
            jobs_per_s=statistics.median(jobs for jobs, _ in rates),
            mrefs_per_s=statistics.median(refs for _, refs in rates) / 1e6,
            latency_ms=1000.0 * statistics.median(
                w / f for w, f in zip(self.round_walls, self.host_factors)),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )

    def check(self) -> None:
        for results in self.outputs:
            actual = {key: reference.counts(result)
                      for key, result in zip(self.keys, results) if result is not None}
            checked, wrong = reference.mismatches(self.expected, actual)
            self.checked += checked
            self.wrong += wrong
        complete = [results for results in self.outputs if None not in results]
        if complete:
            checked, wrong = reference.oracle_sample(self.jobs, complete[-1], self.seed)
            self.checked += checked
            self.wrong += [f"oracle {self.keys[i]}" for i in wrong]

    def layer_metrics(self) -> dict[str, float]:
        return {**super().layer_metrics(),
                **{name: 0.0 for name in SERVICE_LAYER_METRICS}}

    def close(self) -> None:
        if self.ledger is not None:
            self.ledger.tracer.write_jsonl(self.trace_out)
        super().close()


class Fig9(Sweep):
    """Full-size Figure 9 rows through ``fig9_pad.run`` into a fresh store.

    A round is one ``fig9_pad.run`` call per program of
    :data:`FIG9_PROGRAMS`, all through one executor and store, so the
    host-speed probe can run between programs.
    """

    name = "fig9"

    def setup(self) -> None:
        from repro.experiments import fig9_pad

        self.programs = FIG9_SMOKE_PROGRAMS if self.smoke else FIG9_PROGRAMS
        self.jobs = fig9_pad.build_jobs(quick=self.smoke, programs=self.programs)
        self.keys = [reference.fig9_key(self.smoke, job.tag[0], job.tag[1])
                     for job in self.jobs]
        self.expected = reference.load("fig9")
        self.figures = []

    def prepare(self) -> list:
        from repro.exec.executor import SweepExecutor
        from repro.exec.store import ResultStore

        self.store_dir = self.fresh_dir("fig9-store")
        executor = SweepExecutor(workers=1, store=ResultStore(self.store_dir),
                                 backend="auto")
        self.figures.append([])
        return [(executor, program) for program in self.programs]

    def execute(self, step) -> tuple[list, list]:
        from repro.experiments import fig9_pad

        executor, program = step
        figure = fig9_pad.run(quick=self.smoke, programs=[program], executor=executor)
        self.figures[-1].append(figure)
        return [v.result for v in figure.results], executor.stats.records

    def finish(self) -> None:
        shutil.rmtree(self.store_dir, ignore_errors=True)

    def check(self) -> None:
        from repro.experiments.fig9_pad import Fig9Result

        super().check()
        if self.smoke:
            return
        rows = reference.fig9_rows(reference.FIG9_TEXT.read_text())
        for parts in filter(None, self.figures):
            whole = Fig9Result(hierarchy=parts[0].hierarchy,
                               results=tuple(r for part in parts for r in part.results))
            for key, cells in reference.fig9_rows(whole.format()).items():
                self.checked += 1
                if rows.get(key) != cells:
                    self.wrong.append(f"fig9 table {key[0] + 1} row {key[1]} "
                                      "differs from results/fig9.txt")


class FuzzCold(Sweep):
    """The fuzzed population swept cold into a fresh store: store writes.

    A round is one sweep per hierarchy, all through one executor and
    store, so the host-speed probe runs between them.
    """

    name = "fuzz-cold"

    def setup(self) -> None:
        self.jobs = fuzz_jobs(self.smoke, self.seed)
        self.keys = [fuzz_key(job) for job in self.jobs]
        self.expected = reference.load("fuzz")

    def prepare(self) -> list:
        from repro.exec.executor import SweepExecutor
        from repro.exec.store import ResultStore

        self.store_dir = self.fresh_dir("fuzz-store")
        executor = SweepExecutor(workers=1, store=ResultStore(self.store_dir),
                                 backend="auto")
        groups: dict[str, list] = {}
        for job in self.jobs:
            groups.setdefault(job.tag[1], []).append(job)
        return [(executor, group) for group in groups.values()]

    def execute(self, step) -> tuple[list, list]:
        executor, jobs = step
        return executor.run(jobs), executor.stats.records

    def finish(self) -> None:
        shutil.rmtree(self.store_dir, ignore_errors=True)


class FuzzWarm(FuzzCold):
    """Replays of a store the set-up populated: store reads, no simulation.

    Each replay is one sweep of every job through a fresh ``ResultStore``
    handle and executor, as a CLI re-run with the same ``--cache-dir``
    would be.
    """

    name = "fuzz-warm"

    def setup(self) -> None:
        from repro.exec.executor import SweepExecutor
        from repro.exec.store import ResultStore

        super().setup()
        self.store_dir = self.fresh_dir("fuzz-warm-store")
        SweepExecutor(workers=1, store=ResultStore(self.store_dir),
                      backend="auto").run(self.jobs)

    def prepare(self) -> list:
        from repro.exec.executor import SweepExecutor
        from repro.exec.store import ResultStore

        return [(SweepExecutor(workers=1, store=ResultStore(self.store_dir),
                               backend="auto"), self.jobs)]

    def finish(self) -> None:
        pass


class Service(Workload):
    """Mixed warm/cold traffic against a ``python -m repro.service`` server."""

    name = "service"

    def setup(self) -> None:
        from benchmarks.e2e.service_load import Server, prewarm_requests, tune
        from repro.service.client import TuningClient

        scratch = self.fresh_dir("service")
        self.ledger_json = None
        self.server = Server(
            ROOT, self.fresh_dir("service-store"), scratch / "server.log",
            ledger_path=scratch / "ledger.json" if self.ledger else None,
            trace_path=self.trace_out,
        )
        client = TuningClient(port=self.server.port)
        self.prewarm = []
        for request in prewarm_requests(self.smoke):
            status, payload = tune(client, request)
            if status != 200:
                raise RuntimeError(f"pre-warm {request} answered HTTP {status}: "
                                   f"{payload.get('error')}")
            self.prewarm.append((request, payload))

    def run(self) -> None:
        from benchmarks.e2e.service_load import drive, summarize
        from repro.service.client import TuningClient

        client = TuningClient(port=self.server.port)
        before = client.metrics()
        if self.ledger is not None:
            self.server.reset_ledger()
        self.traffic = drive(self.server.port, self.seed, self.seconds,
                             [request for request, _ in self.prewarm])
        self.metrics, self.attempted, self.failed = summarize(
            self.traffic, before, client.metrics(), self.server.peak_rss_mb())
        self.round_walls = [cycle.seconds for cycle in self.traffic.cycles]
        self.host_factors = [cycle.host_factor for cycle in self.traffic.cycles]

    def check(self) -> None:
        expected = reference.load("service")
        answered = [(request, payload) for request, payload in self.prewarm]
        answered += [(s.request, s.payload) for s in self.traffic.warm if s.status == 200]
        cold = [(s.request, s.payload) for s in self.traffic.cold if s.status == 200]
        for request, payload in answered + cold:
            key = reference.request_key(request)
            if key in expected:
                self.checked += 1
                if reference.response_summary(payload) != expected[key]:
                    self.wrong.append(key)
        checked, wrong = reference.oracle_service_sample(cold, self.seed)
        self.checked += checked
        self.wrong += [f"oracle {key}" for key in wrong]

    def close(self) -> None:
        server = getattr(self, "server", None)
        if server is not None:
            server.stop()
            if server.ledger_path is not None and server.ledger_path.exists():
                self.ledger_json = json.loads(server.ledger_path.read_text())
        super().close()

    def layers(self) -> tuple[dict, float, str]:
        wall = self.ledger_json["counts"].get("service.tune.wall", 0.0)
        return self.ledger_json, wall, "server tuning time"

    def layer_metrics(self) -> dict[str, float]:
        out = super().layer_metrics()
        out.update({k: v for k, v in self.metrics.items() if k.startswith("service.")})
        out["service.queue_depth_peak"] = self.ledger_json["counts"].get(
            "service.queue_depth_peak", 0)
        return out


WORKLOADS = {cls.name: cls for cls in (Fig9, FuzzCold, FuzzWarm, Service)}
