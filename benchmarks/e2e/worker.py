"""One workload run in a fresh process (spawned by :mod:`benchmarks.e2e.run`).

    python -m benchmarks.e2e.worker --workload NAME --seed N --seconds S \\
        --spawned-at EPOCH [--setup-only] [--smoke] [--trace-out PATH]

Prints one JSON object as the last line of its standard output.
``setup_s`` runs from ``--spawned-at`` (the parent's clock just before
it started this process) to the end of the set-up, so it includes the
interpreter start and every import.  ``setup_probe`` is a host-speed
probe taken right after the set-up, for the parent to scale it by.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import signal
import sys
import time


def main(argv=None) -> int:
    from benchmarks.e2e.hostspeed import probe_seconds
    from benchmarks.e2e.workloads import WORKLOADS

    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e.worker")
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace-out", type=pathlib.Path, default=None)
    args = parser.parse_args(argv)

    # The parent stops an overrunning worker with SIGTERM; exit through
    # the finally blocks so the server process and scratch space go too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workload = WORKLOADS[args.workload](args.seed, args.seconds, args.smoke,
                                        trace_out=args.trace_out)
    try:
        workload.setup()
        out = {"setup_s": time.time() - args.spawned_at,
               "setup_probe": probe_seconds()}
        if not args.setup_only:
            workload.run()
            workload.check()
    finally:
        workload.close()
    if not args.setup_only:
        out.update(
            metrics=workload.metrics,
            attempted=workload.attempted,
            failed=workload.failed,
            checked=workload.checked,
            wrong=sorted(set(workload.wrong)),
            round_walls=workload.round_walls,
            host_factors=workload.host_factors,
        )
        if args.trace_out is not None:
            ledger_json, wall, label = workload.layers()
            out["layers"] = {"ledger": ledger_json, "wall": wall, "label": label,
                             "metrics": workload.layer_metrics()}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
