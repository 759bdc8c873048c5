"""Correctness references: committed expected results and the oracle sample.

Every workload's results are checked two ways after its timed phase:

* against ``expected/<name>.json``, the per-job ``(total_refs, then
  accesses and misses per level)`` recorded at seed 0 (for the service,
  each request's recommended pads and evaluated counts), and Figure 9's
  rendered rows against ``results/fig9.txt``;
* against the sequential LRU oracle (``backend="oracle"``) on a sample
  of the run's own jobs drawn with the run's seed, so results the
  expected files do not cover are still checked on every seed.

Re-record the expected files (after a change that is *meant* to alter
results) with::

    PYTHONPATH=src python -m benchmarks.e2e.reference [fig9|fuzz|service ...]

Recording checks every fuzz job against the oracle tier, the full-size
Figure 9 tables against ``results/fig9.txt``, and every service entry
against a store-less re-run of the same request.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import random
import shutil
import sys

EXPECTED_DIR = pathlib.Path(__file__).resolve().parent / "expected"
ROOT = EXPECTED_DIR.parents[2]
FIG9_TEXT = ROOT / "results" / "fig9.txt"

# Oracle sample per run: jobs of at most ORACLE_JOB_REFS references,
# ORACLE_BUDGET_REFS in all (1-4 s of sequential replay): one of the
# 2.3-2.6M-ref jacobi, erle64 or mgrid jobs of Figure 9, or 15-30
# fuzz jobs.
ORACLE_JOB_REFS = 2_600_000
ORACLE_BUDGET_REFS = 2_600_000
# Service oracle sample: re-run whole tuning requests, cheapest first.
ORACLE_SERVICE_REQUESTS = 2
ORACLE_SERVICE_REFS = 120_000


def counts(result) -> list[int]:
    """``[total_refs, accesses_1, misses_1, accesses_2, misses_2, ...]``."""
    out = [result.total_refs]
    for level in result.levels:
        out += [level.accesses, level.misses]
    return out


def response_summary(payload: dict) -> dict:
    """What a tuning response must reproduce: pads and evaluated counts.

    Pads are keyed by array name without the ``<prefix>~`` that cold
    requests add (see :func:`benchmarks.e2e.service_load.cold_request`).
    """
    evaluation = payload["evaluation"]
    out = [evaluation["total_refs"]]
    for level in evaluation["levels"]:
        out += [level["accesses"], level["misses"]]
    pads = {name.split("~", 1)[-1]: pad
            for name, pad in payload["recommendation"]["pads"].items()}
    return {"pads": pads, "counts": out}


def load(name: str) -> dict:
    return json.loads((EXPECTED_DIR / f"{name}.json").read_text())


def mismatches(expected: dict, actual: dict) -> tuple[int, list[str]]:
    """``(checked, wrong keys)`` for every key of ``actual`` in ``expected``."""
    checked = [k for k in actual if k in expected]
    return len(checked), [k for k in checked if expected[k] != actual[k]]


def oracle_sample(jobs, results, seed: int) -> tuple[int, list[int]]:
    """Re-run a seeded sample of ``jobs`` on the oracle tier.

    Returns ``(checked, indices whose counts differ from results)``.
    """
    from repro.exec.executor import SweepExecutor

    order = list(range(len(jobs)))
    random.Random(seed).shuffle(order)
    picked, spent = [], 0
    for i in order:
        refs = results[i].total_refs
        if refs <= ORACLE_JOB_REFS and spent + refs <= ORACLE_BUDGET_REFS:
            picked.append(i)
            spent += refs
    oracle = SweepExecutor(workers=1, store=None, backend="oracle").run(
        [jobs[i] for i in picked]
    )
    return len(picked), [
        i for i, ref in zip(picked, oracle) if counts(ref) != counts(results[i])
    ]


def oracle_service_sample(responses, seed: int) -> tuple[int, list[str]]:
    """Re-run a seeded sample of cold tuning requests on the oracle tier.

    ``responses`` holds ``(request, payload)`` pairs the service answered
    with 200.  Returns ``(checked, wrong request keys)``.
    """
    from repro.exec.executor import SweepExecutor
    from repro.service.pipeline import run_tuning
    from repro.service.protocol import parse_request

    cheap = [(req, payload) for req, payload in responses
             if payload["evaluation"]["total_refs"] <= ORACLE_SERVICE_REFS]
    random.Random(seed).shuffle(cheap)
    wrong = []
    for req, payload in cheap[:ORACLE_SERVICE_REQUESTS]:
        executor = SweepExecutor(workers=1, store=None, backend="oracle")
        reference = run_tuning(parse_request(req), executor)
        if response_summary(reference) != response_summary(payload):
            wrong.append(request_key(req))
    return min(len(cheap), ORACLE_SERVICE_REQUESTS), wrong


def fig9_key(quick: bool, program: str, version: str) -> str:
    return f"{'quick' if quick else 'full'}/{program}/{version}"


def fig9_rows(text: str) -> dict[tuple[int, str], list[str]]:
    """The cells of each program's row in rendered Figure 9 tables, keyed
    ``(table index, program)``; column widths do not matter."""
    rows = {}
    for table, block in enumerate(text.strip().split("\n\n")):
        for line in block.splitlines():
            cells = [cell.strip() for cell in line.split("|")]
            if len(cells) > 1 and cells[0] != "program":
                rows[(table, cells[0])] = cells[1:]
    return rows


def request_key(req: dict) -> str:
    """``<kernel>/<n>``: the registry kernel, or the name of a cold
    request's inline program."""
    if "kernel" in req:
        return f"{req['kernel']}/{req['n']}"
    return req["program"]["name"]


# -- recording ----------------------------------------------------------------

def _write(name: str, data: dict) -> None:
    """One entry per line, so a re-record diffs entry by entry."""
    path = EXPECTED_DIR / f"{name}.json"
    rows = (f"{json.dumps(k)}: {json.dumps(data[k], sort_keys=True)}"
            for k in sorted(data))
    path.write_text("{\n" + ",\n".join(rows) + "\n}\n")
    print(f"[reference] wrote {len(data)} entries to {path}")


def record_fig9() -> dict:
    from benchmarks.e2e.workloads import FIG9_SMOKE_PROGRAMS
    from repro.exec.executor import SweepExecutor
    from repro.experiments import fig9_pad

    out = {}
    for quick, programs in ((False, None), (True, FIG9_SMOKE_PROGRAMS)):
        fig = fig9_pad.run(quick=quick, programs=programs,
                           executor=SweepExecutor(workers=1, backend="sim"))
        if not quick and fig.format().rstrip() != FIG9_TEXT.read_text().rstrip():
            raise SystemExit("full-size Figure 9 differs from results/fig9.txt")
        out.update({fig9_key(quick, r.program, r.version): counts(r.result)
                    for r in fig.results})
    return out


def record_fuzz() -> dict:
    from benchmarks.e2e.workloads import fuzz_jobs, fuzz_key
    from repro.exec.executor import SweepExecutor

    jobs = fuzz_jobs(smoke=False)
    sims = SweepExecutor(workers=1, backend="sim").run(jobs)
    oracle = SweepExecutor(workers=1, backend="oracle").run(jobs)
    bad = [fuzz_key(j) for j, s, o in zip(jobs, sims, oracle) if counts(s) != counts(o)]
    if bad:
        raise SystemExit(f"simulator and oracle disagree on {bad[:5]}")
    return {fuzz_key(j): counts(s) for j, s in zip(jobs, sims)}


def record_service(cold_requests: int = 12) -> dict:
    from benchmarks.e2e.service_load import cold_request, prewarm_requests
    from benchmarks.e2e.workloads import fresh_dir
    from repro.exec.executor import SweepExecutor
    from repro.exec.store import ResultStore
    from repro.service.pipeline import run_tuning
    from repro.service.protocol import parse_request

    requests = prewarm_requests(smoke=False) + [
        cold_request(i, seed=0) for i in range(cold_requests)
    ]
    out = {}
    scratch = fresh_dir("record")
    try:
        shared = SweepExecutor(workers=1, store=ResultStore(scratch), backend="auto")
        for req in requests:
            summary = response_summary(run_tuning(parse_request(req), shared))
            alone = response_summary(run_tuning(
                parse_request(req), SweepExecutor(workers=1, backend="sim")))
            if summary != alone:
                raise SystemExit(f"store-served and store-less tuning differ on {req}")
            if out.setdefault(request_key(req), summary) != summary:
                raise SystemExit(f"request seeds change the answer for {req}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return out


RECORDERS = {"fig9": record_fig9, "fuzz": record_fuzz, "service": record_service}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e.reference",
        description="Re-record the benchmark's expected results.",
    )
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help=f"files to record, of {', '.join(RECORDERS)} "
                             "(default: all)")
    args = parser.parse_args(argv)
    unknown = set(args.names) - set(RECORDERS)
    if unknown:
        parser.error(f"unknown reference {sorted(unknown)}")
    for name in args.names or RECORDERS:
        _write(name, RECORDERS[name]())
    return 0


if __name__ == "__main__":
    sys.exit(main())
