"""Compare two sets of benchmark runs against ``BENCHMARK.json``'s bounds.

    python -m benchmarks.e2e.compare A.json B.json

``A.json`` (the baseline) and ``B.json`` are ``run.py --json`` outputs,
each holding several runs.  For every (workload, end-to-end metric) of
untraced full-size runs it prints each side's run count, median and
quartiles, spread (quartile distance over median), B's change against A
(positive = worse), and a verdict:

* ``worse`` -- B's median is worse than A's by more than the bound;
* ``unresolved`` -- a side's spread (quartile distance over median) is
  wider than the bound, and not every B run is better than every A run;
* ``ok`` -- otherwise.

``setup_s`` is judged on its medians alone.  Exits 1 when any verdict is
``worse`` or ``unresolved``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]


def load_runs(path: pathlib.Path) -> dict[tuple[str, str], list[float]]:
    """``{(workload, metric): [values]}`` of untraced full-size runs."""
    out: dict[tuple[str, str], list[float]] = {}
    for run in json.loads(path.read_text())["runs"]:
        if run["trace"] or run["smoke"]:
            continue
        for metric, value in run["metrics"].items():
            out.setdefault((run["workload"], metric), []).append(value)
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a: list[float], b: list[float], bound: float, lower_better: bool,
            medians_only: bool) -> tuple[float, str]:
    """``(B's change against A, positive = worse; verdict)``."""
    qa, qb = quartiles(a), quartiles(b)
    change = (qb[1] - qa[1]) / qa[1]
    if not lower_better:
        change = -change
    spread = max((q[2] - q[0]) / q[1] for q in (qa, qb))
    if not medians_only and spread > bound:
        better = (max(b) < min(a)) if lower_better else (min(b) > max(a))
        return change, "ok" if better else "unresolved"
    return change, "worse" if change > bound else "ok"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e.compare",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("baseline", type=pathlib.Path)
    parser.add_argument("candidate", type=pathlib.Path)
    args = parser.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    a_runs, b_runs = load_runs(args.baseline), load_runs(args.candidate)
    workloads = sorted({w for w, _ in a_runs} & {w for w, _ in b_runs})
    if not workloads:
        print("error: the two files share no workload", file=sys.stderr)
        return 1
    print(f"{'workload':<10} {'metric':<15} {'n':>3} {'A median [q1, q3]':>28} "
          f"{'spread':>6} {'n':>3} {'B median [q1, q3]':>28} {'spread':>6} "
          f"{'change':>7} {'bound':>5}  verdict")
    failed = False
    for workload in workloads:
        for d in declared:
            key = (workload, d["name"])
            if key not in a_runs or key not in b_runs:
                continue
            a, b = a_runs[key], b_runs[key]
            change, word = verdict(a, b, d["bound"], d["better"] == "lower",
                                   medians_only=d["name"] == "setup_s")
            failed = failed or word != "ok"
            cells = []
            for values in (a, b):
                q1, med, q3 = quartiles(values)
                cells.append(f"{len(values):>3} {f'{med:.4g} [{q1:.4g}, {q3:.4g}]':>28} "
                             f"{100 * (q3 - q1) / med:>5.1f}%")
            print(f"{workload:<10} {d['name']:<15} {cells[0]} {cells[1]} "
                  f"{100 * change:>+6.1f}% {d['bound']:>5.2f}  {word}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
