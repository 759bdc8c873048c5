"""The repository benchmark: one command, four workloads.

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed N] [--seconds S]
        [--trace 0|1] [--traced TRACE.jsonl] [--json OUT] [--smoke]

(``PYTHONPATH=src python -m benchmarks.e2e.run ...`` is the same command.)
Each workload runs in fresh worker processes: ``SETUPS - 1`` that only
set up, for the median ``setup_s``, then one that sets up, runs the timed
phase and checks every result against its reference.  Every timing,
``setup_s`` included, is host-scaled (:mod:`benchmarks.e2e.hostspeed`).  Every metric is
printed as ``<workload> <metric> <value> <unit>``, and the last line is
one JSON object::

    {"correct": true, "attempted": 72, "failed": 0, "metrics": {...}}

With ``--trace 0`` (the default) the metrics are ``BENCHMARK.json``'s
``end_to_end`` set, measured untraced; with ``--trace 1`` they are its
``per_layer`` set from a traced run, preceded by a time-by-layer table.
``--traced PATH`` makes both runs, writes the traced run's spans to PATH
(``PATH.<workload>.jsonl`` when there are several workloads; both
``repro.experiments report --trace`` and ``diff`` read it) and reports
the tracing overhead.  ``--json OUT`` appends every run to OUT, the
input of ``python -m benchmarks.e2e.compare``.

Exit status: 0 when every result matched its reference, 1 on any wrong
result or failed worker, 2 when the repository sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import signal
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from benchmarks.e2e.layers import format_layer_table  # noqa: E402
WORKLOAD_NAMES = ("fig9", "fuzz-cold", "fuzz-warm", "service")
SETUPS = 3
# A workload's workers must be done within WORKER_DEADLINE_S; an overrun
# one gets KILL_GRACE_S to clean up, so a run still ends within 180 s.
WORKER_DEADLINE_S = 150.0
KILL_GRACE_S = 20.0


class WorkerError(RuntimeError):
    """A worker process failed, overran its deadline or printed no result."""


def load_declared() -> dict:
    """``BENCHMARK.json``'s metric declarations."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def spawn(name: str, args, deadline: float, setup_only: bool = False,
          trace_out: pathlib.Path | None = None) -> dict:
    """Run one worker process to completion; returns its JSON result."""
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    cmd = [sys.executable, "-m", "benchmarks.e2e.worker", "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    cmd += ["--setup-only"] * setup_only + ["--smoke"] * args.smoke
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    cmd += ["--spawned-at", repr(time.time())]
    # A session of its own, so an overrun can stop the worker and any
    # server it started as one process group.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException:
        _stop_group(proc)
        raise
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{name} worker exited with status {proc.returncode}")
    return json.loads(lines[-1])


def _stop_group(proc: subprocess.Popen) -> None:
    for sig, wait in ((signal.SIGTERM, KILL_GRACE_S), (signal.SIGKILL, None)):
        try:
            os.killpg(proc.pid, sig)
        except ProcessLookupError:
            break
        try:
            proc.wait(timeout=wait)
            break
        except subprocess.TimeoutExpired:
            continue


def trace_path(base: pathlib.Path, name: str, several: bool) -> pathlib.Path:
    return base.with_name(f"{base.stem}.{name}{base.suffix}") if several else base


def run_untraced(name: str, args, deadline: float) -> dict:
    """``SETUPS - 1`` set-up-only workers, then the full one.  Each
    set-up is host-scaled by the probes just before its worker started
    and just after its set-up ended; ``setup_s`` is their median."""
    from benchmarks.e2e.hostspeed import factor, probe_seconds

    setups = []
    for i in range(SETUPS):
        before = probe_seconds()
        result = spawn(name, args, deadline, setup_only=i < SETUPS - 1)
        setups.append(result["setup_s"] / factor(before, result["setup_probe"]))
    result["metrics"]["setup_s"] = statistics.median(setups)
    return result


def trace_overhead_pct(untraced: dict, traced: dict) -> float:
    """How much longer a traced round took, host-speed scaled, in percent."""
    def scaled(result: dict) -> float:
        return statistics.median(w / f for w, f in
                                 zip(result["round_walls"], result["host_factors"]))
    return 100.0 * (scaled(traced) / scaled(untraced) - 1.0)


def emit(name: str, metrics: dict, declared: list[dict]) -> dict:
    """Print and return exactly the declared metrics of one workload."""
    missing = [d["name"] for d in declared if d["name"] not in metrics]
    if missing:
        raise WorkerError(f"{name} did not measure {missing}")
    out = {}
    for d in declared:
        value = metrics[d["name"]]
        print(f"{name} {d['name']} {value:.6g} {d['unit']}")
        out[d["name"]] = {"value": value, "unit": d["unit"]}
    return out


def record(path: pathlib.Path, runs: list[dict]) -> None:
    doc = json.loads(path.read_text()) if path.exists() else {"runs": []}
    doc["runs"].extend(runs)
    path.write_text(json.dumps(doc, indent=1) + "\n")


def run_workload(name: str, args, several: bool) -> list[tuple[int, dict]]:
    """``[(traced, worker result)]``: the untraced run, the traced one, or both."""
    deadline = time.monotonic() + WORKER_DEADLINE_S
    results = []
    if args.trace == 0 or args.traced:
        results.append((0, run_untraced(name, args, deadline)))
    if args.trace == 1 or args.traced:
        out = (trace_path(args.traced, name, several) if args.traced
               else ROOT / ".bench_out" / f"{name}.trace.jsonl")
        out.parent.mkdir(exist_ok=True)
        results.append((1, spawn(name, args, deadline, trace_out=out)))
    return results


def report(name: str, traced: int, result: dict, declared: dict,
           overhead: float | None) -> dict:
    """Print one run's metrics and checks; returns its ``--json`` record."""
    if traced:
        layers = result["layers"]
        print(format_layer_table(name, layers["ledger"], layers["wall"],
                                 layers["label"], overhead))
        if overhead is not None:
            print(f"{name} trace_overhead_pct {overhead:.3g} %")
    emitted = emit(name, result["layers"]["metrics"] if traced else result["metrics"],
                   declared["per_layer" if traced else "end_to_end"])
    wrong = len(result["wrong"])
    error_rate = result["failed"] / max(1, result["attempted"])
    host_factor = statistics.median(result["host_factors"])
    print(f"{name} error_rate {error_rate:.6g} ratio")
    print(f"{name} wrong_results {wrong} count")
    print(f"{name} host_factor {host_factor:.4g} ratio")
    for item in result["wrong"][:10]:
        print(f"{name} wrong: {item}", file=sys.stderr)
    return {
        "workload": name, "trace": traced,
        "correct": wrong == 0 and result["checked"] > 0,
        "attempted": result["attempted"], "failed": result["failed"],
        "checked": result["checked"], "wrong_results": wrong,
        "error_rate": error_rate, "host_factor": host_factor,
        "metrics": emitted, "round_walls": result["round_walls"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 benchmarks/e2e/run.py",
        description="Run the repository benchmark (see benchmarks/e2e/README.md).",
    )
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES,
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="length of the timed phase (default 10)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--traced", type=pathlib.Path, metavar="TRACE.jsonl",
                        help="run untraced and traced; write the spans here")
    parser.add_argument("--json", type=pathlib.Path, metavar="OUT",
                        help="append every run to this JSON file")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the harness self-tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = load_declared()
    names = args.workload or list(WORKLOAD_NAMES)
    several = len(names) > 1

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    runs = []
    failed_worker = False
    for name in names:
        try:
            results = run_workload(name, args, several)
            overhead = (trace_overhead_pct(results[0][1], results[1][1])
                        if len(results) == 2 else None)
            records = [report(name, traced, result, declared, overhead)
                       for traced, result in results]
        except WorkerError as exc:
            print(f"error: {exc}", file=sys.stderr)
            failed_worker = True
            continue
        for rec in records:
            summary["correct"] = summary["correct"] and rec["correct"]
            summary["attempted"] += rec["attempted"]
            summary["failed"] += rec["failed"]
            for metric, value in rec["metrics"].items():
                summary["metrics"][f"{name}.{metric}" if several else metric] = value
            rec["metrics"] = {m: v["value"] for m, v in rec["metrics"].items()}
            runs.append({**rec, "seed": args.seed, "seconds": args.seconds,
                         "smoke": args.smoke})
    if args.json is not None:
        record(args.json, runs)
    if not runs:
        return 1
    print(json.dumps(summary))
    return 0 if summary["correct"] and not failed_worker else 1


if __name__ == "__main__":
    sys.exit(main())
