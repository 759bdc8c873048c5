"""``python -m repro.service`` -- run the tuning server.

Also reachable as ``repro-experiments serve ...`` (the experiments CLI
forwards its ``serve`` verb here).  The server runs until SIGTERM or
SIGINT, drains admitted work, and exits 0 -- the contract the CI
service-smoke job asserts.
"""

from __future__ import annotations

import argparse
import asyncio
import sys

from repro.exec.backends import BACKENDS
from repro.exec.store import default_cache_dir
from repro.service.server import ServiceConfig, serve

__all__ = ["main"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Run the long-running layout/tile-tuning service.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8077,
                        help="listen port (0 picks a free one)")
    parser.add_argument(
        "--store-dir", default=None, metavar="DIR",
        help="shared result-store directory (simulation results and "
             "tuned responses; default: $REPRO_CACHE_DIR or "
             "~/.cache/repro-sim)",
    )
    parser.add_argument(
        "--concurrency", type=int, default=2, metavar="N",
        help="tuning requests computed in parallel (default 2)",
    )
    parser.add_argument(
        "--queue-limit", type=int, default=8, metavar="N",
        help="max queued+running cold requests before 429 (default 8)",
    )
    parser.add_argument(
        "--sim-workers", type=int, default=1, metavar="N",
        help="simulation worker processes per tuning worker (default 1)",
    )
    parser.add_argument("--backend", choices=BACKENDS, default="sim",
                        help="executor backend for evaluations (default sim)")
    parser.add_argument(
        "--drain-timeout", type=float, default=60.0, metavar="S",
        help="seconds to wait for admitted work on shutdown (default 60)",
    )
    parser.add_argument(
        "--trace", default=None, metavar="PATH", dest="trace",
        help="record request/pipeline/simulator spans and timeline "
             "counter tracks; written to PATH on shutdown (Chrome "
             "trace-event JSON if it ends in .json, JSON lines otherwise)",
    )
    args = parser.parse_args(argv)
    if args.concurrency < 1:
        parser.error(f"--concurrency must be >= 1, got {args.concurrency}")
    if args.queue_limit < 1:
        parser.error(f"--queue-limit must be >= 1, got {args.queue_limit}")
    if args.sim_workers < 1:
        parser.error(f"--sim-workers must be >= 1, got {args.sim_workers}")

    config = ServiceConfig(
        store_dir=str(args.store_dir or default_cache_dir()),
        host=args.host,
        port=args.port,
        concurrency=args.concurrency,
        queue_limit=args.queue_limit,
        sim_workers=args.sim_workers,
        backend=args.backend,
        drain_timeout=args.drain_timeout,
        trace_path=args.trace,
    )
    return asyncio.run(serve(config))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
