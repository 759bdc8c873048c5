"""The tuning server with the benchmark's layer wrappers, for traced runs.

    python -m benchmarks.e2e.serve --ledger L.json --trace-out T.jsonl -- [repro.service args]

Runs ``repro.service`` unchanged inside :func:`benchmarks.e2e.layers.installed`.
SIGUSR1 empties the ledger (the start of the timed phase) and touches
``L.json.reset`` once done; on shutdown the ledger is written to
``L.json`` and its spans to ``T.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import signal
import sys

from benchmarks.e2e.layers import Ledger, installed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e.serve")
    parser.add_argument("--ledger", required=True, type=pathlib.Path)
    parser.add_argument("--trace-out", required=True, type=pathlib.Path)
    parser.add_argument("service_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    service_args = args.service_args
    if service_args[:1] == ["--"]:
        service_args = service_args[1:]

    from repro.service.__main__ import main as serve_main

    ledger = Ledger()

    def on_reset(signum, frame):
        ledger.reset()
        args.ledger.with_name(args.ledger.name + ".reset").touch()

    signal.signal(signal.SIGUSR1, on_reset)
    with installed(ledger, service=True):
        code = serve_main(service_args)
    args.ledger.write_text(json.dumps(ledger.to_json()))
    ledger.tracer.write_jsonl(args.trace_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
