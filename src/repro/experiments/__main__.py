"""Command-line entry point: regenerate any table or figure.

Usage::

    python -m repro.experiments table1
    python -m repro.experiments fig9 [--quick]
    python -m repro.experiments fig11 --workers 4          # parallel sweep
    python -m repro.experiments ext_search --workers 4 --budget 64
    python -m repro.experiments ext_assoc --quick --budget 16    # Section 1 claim
    python -m repro.experiments ext_model --quick          # predictor vs simulator
    python -m repro.experiments ext_fuzz --quick           # differential fuzzing
    python -m repro.experiments ext_fuzz --seed 9 --count 1      # one fuzz case
    python -m repro.experiments ext_symbolic --quick       # exact levels vs simulator
    python -m repro.experiments fig9 --backend sim         # force pure simulation
    python -m repro.experiments all --quick --out results/
    python -m repro.experiments serve --port 8077          # tuning service

The ``serve`` verb starts the long-running tuning server of
:mod:`repro.service` (its flags are documented there and in
``docs/service.md``); every other verb regenerates an artifact and
exits.

Simulations fan out across ``--workers`` processes and are memoized in an
on-disk result store (``--cache-dir``, default ``~/.cache/repro-sim`` or
``$REPRO_CACHE_DIR``), so re-running a figure re-simulates only points
whose program/layout/hierarchy actually changed.  ``--no-cache`` disables
the store for a pure recomputation.

``--trace PATH`` records the run as structured spans (one root span per
experiment, one per sweep, one per simulation job) plus a metrics
snapshot; ``--trace-format chrome`` writes a Perfetto/chrome://tracing
loadable file instead of JSON lines.  ``report --trace PATH`` summarizes
a recorded trace (top spans by self-time, store hit rate, worker
utilization incl. steals and queue depth, refs/s); ``report --trace
PATH --trace-id ID`` reconstructs one request's causal span tree
instead.  Traced runs also record per-level miss-rate counter tracks
(one sample per ``--timeline-window`` references, default 65536; 0
disables), which render as phase curves in Perfetto.  ``diff --trace
FRESH --baseline BASE`` compares two recorded traces -- per-span
self-time and work counters -- and exits nonzero when growth crosses
``--fail-pct``.

Sweeps shard across machines by content key::

    python -m repro.experiments fig9 --shard 1/2 --cache-dir .store-a
    python -m repro.experiments fig9 --shard 2/2 --cache-dir .store-b
    python -m repro.experiments merge --stores .store-a .store-b \\
        --cache-dir .store-merged
    python -m repro.experiments fig9 --cache-dir .store-merged  # all cached

Each ``--shard i/N`` run computes only its deterministic partition of
the sweep (no table); ``merge`` fuses the shard stores (and, with
``--traces``/``--trace``, their trace files); the final unsharded run
replays entirely from the merged store, byte-identical to a run that
never sharded.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import pathlib
import sys
import time

from repro.errors import ReproError
from repro.exec.backends import BACKEND_ALIASES, BACKENDS
from repro.exec.store import ENV_CACHE_DIR, ResultStore, default_cache_dir
from repro.obs.diff import FAIL_PCT, WARN_PCT
from repro.obs.metrics import diff_counters, format_exec_line, get_metrics
from repro.obs.timeline import set_timeline_window
from repro.obs.tracer import get_tracer, start_tracing, stop_tracing

#: Each verb's module; a run imports only the experiments it runs.
EXPERIMENTS = {
    "table1": "repro.experiments.table1_programs",
    "fig9": "repro.experiments.fig9_pad",
    "fig10": "repro.experiments.fig10_grouppad",
    "fig11": "repro.experiments.fig11_sweep",
    "fig12": "repro.experiments.fig12_fusion",
    "fig13": "repro.experiments.fig13_tiling",
    "timing": "repro.experiments.timing",
    # Extensions beyond the paper's figures (claims made in its prose).
    "threelevel": "repro.experiments.ext_three_level",
    "tlb": "repro.experiments.ext_tlb",
    "timetile": "repro.experiments.ext_timetile",
    "ext_search": "repro.experiments.ext_search",
    "ext_assoc": "repro.experiments.ext_assoc",
    "ext_model": "repro.experiments.ext_model",
    "ext_fuzz": "repro.experiments.ext_fuzz",
    "ext_symbolic": "repro.experiments.ext_symbolic",
}

def experiment_names(verb: str) -> list[str]:
    """The experiments one CLI verb expands to: ``"all"`` runs every
    registered experiment once, any other verb just itself."""
    return sorted(EXPERIMENTS) if verb == "all" else [verb]


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        # The tuning service has its own long-running flag surface;
        # forward to it rather than threading a second mode through the
        # experiment parser.  See docs/service.md.
        from repro.service.__main__ import main as serve_main

        return serve_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all", "report", "merge", "diff"],
        help="which artifact to regenerate ('report' summarizes a trace; "
             "'merge' fuses shard stores/traces; 'diff' compares a fresh "
             "trace against a baseline)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced problem sizes (seconds instead of minutes)",
    )
    parser.add_argument(
        "--out", type=pathlib.Path, default=None,
        help="also write each report to <out>/<experiment>.txt",
    )
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="simulation worker processes (default: all CPUs)",
    )
    parser.add_argument(
        "--cache-dir", type=pathlib.Path, default=None, metavar="DIR",
        help=f"result-store directory (default: $" + ENV_CACHE_DIR +
             " or ~/.cache/repro-sim)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk result store",
    )
    parser.add_argument(
        "--backend", choices=[*BACKENDS, *BACKEND_ALIASES], default="sim",
        help="how jobs are computed: 'sim' (default) is the vectorized "
             "simulator, 'oracle' the sequential LRU replay; 'auto' is "
             "an alias of 'sim'",
    )
    parser.add_argument(
        "--budget", type=int, default=None, metavar="B",
        help="evaluation budget for search experiments (per kernel), "
             "or per-program reference cap for ext_fuzz",
    )
    parser.add_argument(
        "--seed", type=int, default=None, metavar="S",
        help="base seed for seeded experiments (ext_fuzz: the campaign "
             "window start; --seed S --count 1 reruns one fuzz case)",
    )
    parser.add_argument(
        "--count", type=int, default=None, metavar="N",
        help="number of fuzzed programs for ext_fuzz",
    )
    parser.add_argument(
        "--shard", default=None, metavar="i/N",
        help="compute only this shard of each experiment's sweep "
             "(deterministic partition by job content key) and populate "
             "the store with its results; no table is rendered.  Run "
             "every shard against its own --cache-dir, fuse them with "
             "the 'merge' verb, then rerun unsharded against the merged "
             "store for a fully cached, byte-identical report",
    )
    parser.add_argument(
        "--stores", type=pathlib.Path, nargs="+", default=None, metavar="DIR",
        help="('merge' only) shard store directories to fuse into "
             "--cache-dir",
    )
    parser.add_argument(
        "--traces", type=pathlib.Path, nargs="+", default=None, metavar="PATH",
        help="('merge' only) per-shard trace files to fuse into --trace",
    )
    parser.add_argument(
        "--trace", type=pathlib.Path, default=None, metavar="PATH",
        help="record a trace of the run to PATH "
             "(or, with 'report', the trace file to summarize)",
    )
    parser.add_argument(
        "--trace-format", choices=["jsonl", "chrome"], default="jsonl",
        help="trace file format: JSON lines (default) or Chrome "
             "trace-event for chrome://tracing / Perfetto",
    )
    parser.add_argument(
        "--trace-id", default=None, metavar="ID",
        help="('report' only) reconstruct one request's causal span tree "
             "instead of the aggregate summary",
    )
    parser.add_argument(
        "--baseline", type=pathlib.Path, default=None, metavar="PATH",
        help="('diff' only) baseline trace file; --trace is the fresh one",
    )
    parser.add_argument(
        "--warn-pct", type=float, default=WARN_PCT, metavar="PCT",
        help="('diff' only) self-time growth that warns "
             f"(default {WARN_PCT:g}%%)",
    )
    parser.add_argument(
        "--fail-pct", type=float, default=FAIL_PCT, metavar="PCT",
        help="('diff' only) self-time growth that fails the diff "
             f"(default {FAIL_PCT:g}%%)",
    )
    parser.add_argument(
        "--timeline-window", type=int, default=None, metavar="REFS",
        help="phase-telemetry window width in references for traced "
             "runs; each simulated job emits per-level miss-rate counter "
             "samples once per window (0 disables; default 65536)",
    )
    args = parser.parse_args(argv)
    if args.budget is not None and args.budget < 1:
        parser.error(f"--budget must be >= 1, got {args.budget}")
    if args.workers is not None and args.workers < 1:
        parser.error(f"--workers must be >= 1, got {args.workers}")
    if args.count is not None and args.count < 1:
        parser.error(f"--count must be >= 1, got {args.count}")
    shard = None
    if args.shard is not None:
        from repro.exec.shard import parse_shard

        try:
            shard = parse_shard(args.shard)
        except ReproError as exc:
            parser.error(str(exc))
        if args.no_cache:
            parser.error("--shard populates the result store; drop --no-cache")
    if args.experiment != "merge" and (args.stores or args.traces):
        parser.error("--stores/--traces only apply to the 'merge' verb")
    if args.experiment != "report" and args.trace_id is not None:
        parser.error("--trace-id only applies to the 'report' verb")
    if args.experiment != "diff" and args.baseline is not None:
        parser.error("--baseline only applies to the 'diff' verb")
    if args.timeline_window is not None and args.timeline_window < 0:
        parser.error(f"--timeline-window must be >= 0, "
                     f"got {args.timeline_window}")

    if args.experiment == "diff":
        if args.trace is None or args.baseline is None:
            parser.error("'diff' needs --trace FRESH and --baseline BASELINE")
        for path in (args.trace, args.baseline):
            if not path.exists():
                parser.error(f"no trace file at {path}")
        from repro.obs.diff import diff_traces

        result = diff_traces(args.baseline, args.trace,
                             warn_pct=args.warn_pct, fail_pct=args.fail_pct)
        print(result.format())
        return 1 if result.status == "fail" else 0

    if args.experiment == "merge":
        if not args.stores:
            parser.error("'merge' needs --stores DIR [DIR ...] to fuse")
        if args.cache_dir is None:
            parser.error("'merge' needs --cache-dir DIR as the destination store")
        if args.no_cache:
            parser.error("'merge' writes the destination store; drop --no-cache")
        from repro.exec.shard import merge_stores, merge_traces

        stats = merge_stores(args.cache_dir, args.stores)
        print(f"[merge] {stats['merged']} entries merged "
              f"({stats['duplicates']} byte-equal duplicates) from "
              f"{stats['sources']} shard stores into {args.cache_dir}")
        if args.traces:
            if args.trace is None:
                parser.error("--traces needs --trace PATH for the merged output")
            tstats = merge_traces(args.trace, args.traces)
            print(f"[merge] {tstats['spans']} spans + {tstats['events']} events "
                  f"fused from {tstats['sources']} traces into {args.trace}")
        return 0

    if args.experiment == "report":
        if args.trace is None:
            parser.error("'report' needs --trace PATH pointing at a recorded trace")
        if not args.trace.exists():
            parser.error(f"no trace file at {args.trace}")
        from repro.obs.report import format_report, format_trace_tree

        if args.trace_id is not None:
            print(format_trace_tree(args.trace, trace_id=args.trace_id))
        else:
            print(format_report(args.trace))
        return 0

    if args.timeline_window is not None:
        set_timeline_window(args.timeline_window)
    tracer = start_tracing() if args.trace is not None else get_tracer()

    executor = None

    def shared_executor():
        """The run's one executor and store, made when an experiment
        first simulates (table1 and timing never do)."""
        nonlocal executor
        if executor is None:
            from repro.exec.executor import SweepExecutor

            store = None
            if not args.no_cache:
                store = ResultStore(args.cache_dir or default_cache_dir())
            executor = SweepExecutor(workers=args.workers, store=store,
                                     backend=args.backend, shard=shard)
        return executor

    for name in experiment_names(args.experiment):
        module = importlib.import_module(EXPERIMENTS[name])
        if shard is not None:
            # Populate mode: compute this shard's partition of the
            # sweep into the store; the table renders later, from the
            # merged store, byte-identically to an unsharded run.
            if not hasattr(module, "build_jobs"):
                print(
                    f"warning: {name!r} has no static job list; "
                    f"skipping under --shard",
                    file=sys.stderr,
                )
                continue
            t0 = time.time()
            with tracer.span(f"experiment.{name}", cat="experiment",
                             quick=args.quick, shard=str(shard)):
                jobs = module.build_jobs(quick=args.quick)
                shared_executor().run(jobs)
            stats = executor.stats
            print(f"==== {name} (shard {shard}, {time.time() - t0:.1f}s) ====")
            print(f"[exec] {stats.format()}")
            print(f"[shard] owned {stats.jobs}/{len(jobs)} jobs, "
                  f"skipped {stats.skipped} (other shards)")
            print()
            continue
        # Experiments that simulate accept the executor; table1/timing
        # (inventory and wall-clock measurement) run as before.
        kwargs = {"quick": args.quick}
        params = inspect.signature(module.run).parameters
        if "executor" in params:
            kwargs["executor"] = shared_executor()
        if "budget" in params and args.budget is not None:
            kwargs["budget"] = args.budget
        if "seed" in params and args.seed is not None:
            kwargs["seed"] = args.seed
        if "count" in params and args.count is not None:
            kwargs["count"] = args.count
        before = get_metrics().snapshot()
        t0 = time.time()
        with tracer.span(f"experiment.{name}", cat="experiment",
                         quick=args.quick):
            result = module.run(**kwargs)
        report = result.format()
        elapsed = time.time() - t0
        print(f"==== {name} ({elapsed:.1f}s) ====")
        if "executor" in kwargs:
            # Cumulative over every sweep round the experiment ran --
            # search experiments drive the executor many times per run.
            # Rendered from the metrics registry (counter deltas across
            # the run), the single source the trace snapshot shares.
            d = diff_counters(before, get_metrics().snapshot())
            print("[exec] " + format_exec_line(
                jobs=int(d.get("exec.jobs", 0)),
                cache_hits=int(d.get("exec.store_hits", 0)),
                pooled=int(d.get("exec.pool_jobs", 0)),
                workers=executor.workers,
                sim_seconds=d.get("exec.sim_seconds", 0.0),
                wall_seconds=d.get("exec.wall_seconds", 0.0),
            ))
        print(report)
        print()
        if args.out is not None:
            args.out.mkdir(parents=True, exist_ok=True)
            (args.out / f"{name}.txt").write_text(report + "\n")
    if executor is not None:
        executor.close()
    if args.trace is not None:
        tracer.write(args.trace, format=args.trace_format,
                     metrics=get_metrics().snapshot())
        print(f"[obs] trace written to {args.trace} "
              f"({args.trace_format}, {len(tracer.spans())} spans)")
        stop_tracing()
    return 0


if __name__ == "__main__":
    sys.exit(main())
