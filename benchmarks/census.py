"""Call census: which functions of ``src/repro`` do the entry points reach?

    python benchmarks/census.py

Runs every entry point of the repository -- ``all --quick``, every
``examples/*.py``, a full ``ext_fuzz`` and a known-divergence replay, a
traced ``fig9 --quick`` (JSON lines and Chrome, with a timeline window)
with ``report`` and ``diff``, a two-shard ``fig9`` with ``merge``, a
traced replay diffed against the fresh run, an ``oracle`` shard, the
tuning-service smoke (serve, tune twice, poll the job, metrics, SIGTERM,
``report --trace-id``, then a restart that serves from the store) and
``benchmarks/e2e/run.py --smoke`` -- with a call hook in every Python
interpreter they start, then prints the reached and unreached function
lines of each ``repro`` module.

An unreached function is either kept on purpose -- listed in
:data:`KEPT` with one of the :data:`REASONS` -- or a candidate for
deletion.  The report sums the kept lines per reason and names every
candidate; the target is none.

The hook is a ``usercustomize`` module in a scratch user base
(``PYTHONUSERBASE``), so it survives the benchmark and service launchers
that replace ``PYTHONPATH``.  It is a profile function (``sys.setprofile``
and ``threading.setprofile``, so every thread) that records the code
object of every Python call, and it writes them out when the interpreter
exits, including through ``os._exit`` (how forked pool workers end).
``cProfile`` is not used: it reports only the calls whose return it
matched, and under load it missed some of the tuning server's handlers.

A function's lines are its ``def`` span minus the spans of the functions
and classes nested in it, which count on their own; lambdas and
comprehensions count with their enclosing function.  A function is
reached when it was called at least once.

What the census cannot see:

* code run only in a process killed by a signal (an overrunning
  benchmark worker, a server that does not drain);
* branches: a reached function may still hold dead lines;
* module and class bodies, which run at import and are not counted;
* code that only runs on an event these runs do not trigger: a new fuzz
  divergence (shrinking), malformed service input, a corrupt store row,
  a pool that fails to start;
* callers outside the entry points above, such as the tests.
"""

from __future__ import annotations

import ast
import json
import os
import pathlib
import signal
import socket
import subprocess
import sys
import sysconfig
import tempfile
import time
from dataclasses import dataclass

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

_CALL_HOOK = '''\
import atexit, json, os, sys, threading, time

_OUT = {out!r}
_PREFIX = {prefix!r}
_seen = {{}}  # id -> code object, which the entry keeps alive


def _profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        _seen[id(code)] = code


def _dump():
    seen = sorted({{(c.co_filename, c.co_firstlineno, c.co_name)
                    for c in list(_seen.values()) if c.co_filename.startswith(_PREFIX)}})
    path = os.path.join(_OUT, f"{{os.getpid()}}-{{time.time_ns()}}.json")
    with open(path, "w") as f:
        json.dump(seen, f)


def _exit_after_dump(code, _exit=os._exit):
    _dump()
    _exit(code)


sys.setprofile(_profile)
threading.setprofile(_profile)
atexit.register(_dump)
os._exit = _exit_after_dump
'''


#: Why a function that no entry point reaches stays in the package.
REASONS = {
    "oracle": "a reference oracle that tests compare against",
    "event": "runs only on an event the census cannot trigger",
    "benchmark": "called by a committed benchmark under benchmarks/",
    "paper": "a paper variant that docs/paper_mapping.md maps to a section",
    "implicit": "called implicitly by Python or by an interface",
}

#: Every function left unreached on purpose: ``module.qualname`` -> (a
#: :data:`REASONS` key, the caller, event or section it is kept for).
#: Anything else unreached is a candidate for deletion.
KEPT = {
    # reference oracles
    "repro.cache.assoc.miss_mask_assoc": (
        "oracle", "sequential LRU set model the vectorized caches are checked against"),
    "repro.exec.hashing.digest": (
        "oracle", "hash of a fresh encoding, checked against the memoized key fragments"),
    "repro.ir.validate.validate_program": ("oracle", "IR well-formedness checker"),
    "repro.ir.validate.check_program": ("oracle", "IR well-formedness checker"),
    **{f"repro.layout.conflicts.{name}": (
        "oracle", "pairwise severe-conflict test the diagram and padding are checked against")
       for name in ("ConflictReport.count", "ConflictReport.fixable",
                    "ConflictReport.is_clean", "_delta_bounds", "delta_interval",
                    "interval_conflicts_with_cache", "nest_severe_conflicts",
                    "program_severe_conflicts")},
    # events the census runs cannot produce
    **{f"repro.fuzz.shrink.{name}": ("event", "a new fuzz divergence to minimize")
       for name in ("_is_valid", "tighten_arrays", "_drop_nests", "_drop_statements",
                    "_drop_reads", "_halve_trips", "_flatten_triangular",
                    "_simplify_subscripts", "_simpler_subscripts", "shrink_program")},
    **{f"repro.fuzz.corpus.{name}": ("event", "a new fuzz divergence to commit")
       for name in ("CorpusCase.file_name", "CorpusCase.to_data", "save_case")},
    "repro.service.protocol.hierarchy_to_json": (
        "event", "a new fuzz divergence to commit (the corpus hierarchy encoding)"),
    "repro.exec.scheduler.WorkerPool.discard": ("event", "a worker pool that breaks"),
    "repro.obs.timeline.Timeline._coalesce": (
        "event", "a job with more timeline windows than the ring holds"),
    "repro.obs.metrics.Histogram._draw": (
        "event", "a pooled job with more than 2,048 observations of one histogram"),
    "repro.exec.store.default_cache_dir": ("event", "a CLI run given no store directory"),
    "repro.cache.stats.SimulationResult.summary": (
        "event", "a store merge whose sources disagree on a key"),
    "repro.experiments.ext_symbolic.AgreementRow.agrees": (
        "event", "an exact row in the pad-sweep table; no fig9 kernel row is exact"),
    # committed benchmarks
    "repro.cache.assoc_vec.miss_mask_assoc_vec": ("benchmark", "benchmarks/test_bench_assoc.py"),
    "repro.exec.executor.ExecStats.hit_rate": ("benchmark", "benchmarks/test_bench_exec.py"),
    "repro.exec.jobs.SimJob.run": ("benchmark", "benchmarks/test_bench_symbolic.py"),
    "repro.experiments.fig13_tiling.Fig13Result.mean_mflops": (
        "benchmark", "benchmarks/test_bench_fig13.py"),
    "repro.layout.layout.DataLayout.total_padding": (
        "benchmark", "benchmarks/test_bench_transforms.py"),
    "repro.transforms.tilesize.TileShape.footprint_bytes": (
        "benchmark", "benchmarks/test_bench_transforms.py"),
    "repro.symbolic.analyze_job": ("benchmark", "benchmarks/e2e/layers.py"),
    # paper variants no figure runs
    "repro.transforms.grouppad.grouppad_recursive": ("paper", "recursive GROUPPAD, section 3.2.2"),
    "repro.transforms.pad.pad_explicit_levels": (
        "paper", "PAD's explicit all-levels variant, section 3.1"),
    "repro.transforms.transpose.transpose_array": ("paper", "Figure 1's array transpose"),
    "repro.transforms.transpose.transpose_array.rewrite_ref": (
        "paper", "Figure 1's array transpose"),
    # called implicitly
    "repro.cache.stackdist.MissTaxonomy.__str__": ("implicit", "str()"),
    "repro.exec.executor.SweepExecutor.__enter__": ("implicit", "with"),
    "repro.exec.executor.SweepExecutor.__exit__": ("implicit", "with"),
    "repro.exec.scheduler.WorkerPool.__enter__": ("implicit", "with"),
    "repro.exec.scheduler.WorkerPool.__exit__": ("implicit", "with"),
    "repro.exec.scheduler.WorkerPool.__repr__": ("implicit", "repr()"),
    "repro.exec.store.LogStore.decode": ("implicit", "the hook each store subclass overrides"),
    "repro.exec.store.LogStore.__contains__": ("implicit", "in"),
    "repro.exec.store.LogStore.__repr__": ("implicit", "repr()"),
    "repro.ir.builder.ArrayHandle.__repr__": ("implicit", "repr()"),
    "repro.ir.loops.Loop.__repr__": ("implicit", "repr()"),
    "repro.ir.validate.Finding.__str__": ("implicit", "str()"),
    "repro.layout.conflicts.ConflictReport.__bool__": ("implicit", "truth test"),
    "repro.lazy.lazy_exports.__dir__": ("implicit", "dir() of a package"),
    "repro.search.strategies.SearchStrategy.run": ("implicit", "Protocol stub"),
    **{f"repro.obs.tracer.NullTracer.{name}": ("implicit", "the no-op half of the Tracer interface")
       for name in ("event", "add_span", "counter", "new_span_id", "spans",
                    "counters", "open_spans")},
}


@dataclass(frozen=True)
class Function:
    """One ``def`` in ``src/repro``, keyed like the code object it compiles to."""

    module: str
    qualname: str
    path: str
    firstlineno: int
    lines: int

    @property
    def name(self) -> str:
        """``module.qualname``, as :data:`KEPT` spells it."""
        return f"{self.module}.{self.qualname}"

    @property
    def key(self) -> tuple[str, int, str]:
        return (self.path, self.firstlineno, self.qualname.rsplit(".", 1)[-1])


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _span(node: ast.AST) -> tuple[int, int]:
    """First and last line, decorators included (as ``co_firstlineno``)."""
    return min([node.lineno] + [d.lineno for d in node.decorator_list]), node.end_lineno


def _child_defs(node: ast.AST):
    """The defs nested in ``node`` with no def in between."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, _DEFS):
            yield child
        else:
            yield from _child_defs(child)


def _functions_in(path: pathlib.Path, module: str) -> list[Function]:
    found: list[Function] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in _child_defs(node):
            qualname = prefix + child.name
            if not isinstance(child, ast.ClassDef):
                first, last = _span(child)
                nested = sum(e - f + 1 for f, e in map(_span, _child_defs(child)))
                found.append(Function(module, qualname, str(path), first,
                                      last - first + 1 - nested))
            visit(child, qualname + ".")

    visit(ast.parse(path.read_text(), filename=str(path)), "")
    return found


def package_functions(package: pathlib.Path = PACKAGE) -> list[Function]:
    """Every function and method defined in the package's sources."""
    out = []
    for path in sorted(package.rglob("*.py")):
        rel = path.relative_to(package.parent).with_suffix("")
        parts = rel.parts[:-1] if rel.name == "__init__" else rel.parts
        out.extend(_functions_in(path, ".".join(parts)))
    return out


@dataclass(frozen=True)
class Census:
    """Which package functions a set of runs reached."""

    functions: tuple[Function, ...]
    reached: frozenset[tuple[str, int, str]]

    def is_reached(self, module: str, qualname: str) -> bool:
        for fn in self.functions:
            if fn.module == module and fn.qualname == qualname:
                return fn.key in self.reached
        raise KeyError(f"no function {module}.{qualname}")

    def format(self) -> str:
        per_module: dict[str, list[int]] = {}
        kept: dict[str, list[Function]] = {reason: [] for reason in REASONS}
        candidates: list[Function] = []
        reached_names = set()
        for fn in self.functions:
            row = per_module.setdefault(fn.module, [0, 0])
            if fn.key in self.reached:
                row[0] += fn.lines
                reached_names.add(fn.name)
                continue
            row[1] += fn.lines
            if fn.name in KEPT:
                kept[KEPT[fn.name][0]].append(fn)
            else:
                candidates.append(fn)
        width = max(len(m) for m in per_module)
        lines = [f"{'module':<{width}}  reached  unreached  (function lines)"]
        for module, (hit, miss) in sorted(per_module.items()):
            lines.append(f"{module:<{width}}  {hit:7d}  {miss:9d}")
        hit = sum(r[0] for r in per_module.values())
        miss = sum(r[1] for r in per_module.values())
        lines.append(f"{'total':<{width}}  {hit:7d}  {miss:9d}  "
                     f"of {hit + miss} function lines")
        lines.append("")
        lines.append(f"unreached: {miss - _lines(candidates)} kept, "
                     f"{_lines(candidates)} candidate function lines")
        for reason, fns in kept.items():
            lines.append(f"  kept, {REASONS[reason]}: {_lines(fns)} lines")
            lines.extend(_by_module(fns, "    "))
        lines.append("")
        lines.append("candidate functions (lines):")
        lines.extend(_by_module(candidates, "  "))
        stale = sorted(reached_names & KEPT.keys())
        if stale:
            lines.append("")
            lines.append("kept but reached (drop from KEPT): " + ", ".join(stale))
        return "\n".join(lines)


def _lines(fns: list[Function]) -> int:
    return sum(fn.lines for fn in fns)


def _by_module(fns: list[Function], indent: str) -> list[str]:
    per_module: dict[str, list[Function]] = {}
    for fn in fns:
        per_module.setdefault(fn.module, []).append(fn)
    return [f"{indent}{module}: " + ", ".join(f"{fn.qualname} ({fn.lines})" for fn in group)
            for module, group in sorted(per_module.items())]


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _serve(work: pathlib.Path, env: dict, *flags: str):
    """Start ``serve`` on a free port over the scratch store and wait until
    it answers; returns the server process and the client command line."""
    port = str(_free_port())
    client = [sys.executable, "-m", "repro.service.client", "--port", port]
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.experiments", "serve", "--port", port,
         "--store-dir", str(work / "svc-store"), *flags],
        cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    for _ in range(120):
        if subprocess.run(client + ["healthz"], cwd=work, env=env,
                          capture_output=True).returncode == 0:
            break
        time.sleep(0.5)
    return server, client


def _drain(server: subprocess.Popen) -> None:
    """SIGTERM the server and wait for its drain (it dumps its calls then)."""
    server.send_signal(signal.SIGTERM)
    try:
        server.wait(timeout=120)
    except subprocess.TimeoutExpired:
        server.kill()
        server.wait()
        raise


def _first_trace_id(trace: pathlib.Path) -> str:
    for line in trace.read_text().splitlines():
        trace_id = (json.loads(line).get("args") or {}).get("trace_id")
        if trace_id:
            return trace_id
    raise RuntimeError(f"{trace}: no span carries a trace_id")


def _service_smoke(run, work: pathlib.Path, env: dict) -> None:
    """The CI service smoke, then what it leaves out.

    Serve, tune one request twice, poll its job, read the metrics in both
    formats, then SIGTERM and wait for the drain.  ``report --trace-id``
    then follows one request through the server's trace, and a second
    server on the same store answers the request from disk."""
    request = work / "request.json"
    request.write_text('{"kernel": "jacobi", "n": 48, "budget": 4, "max_lines": 2}')
    trace = work / "svc.jsonl"
    server, client = _serve(work, env, "--trace", str(trace))
    try:
        key = json.loads(run(client + ["tune", str(request)]))["key"]
        run(client + ["tune", str(request)])
        run(client + ["job", key])
        run(client + ["metrics"])
        run(client + ["metrics", "--format", "prometheus"])
    finally:
        _drain(server)
    run([sys.executable, "-m", "repro.experiments", "report", "--trace", str(trace),
         "--trace-id", _first_trace_id(trace)])
    server, client = _serve(work, env)
    try:
        run(client + ["tune", str(request)])
    finally:
        _drain(server)


def entry_points(run, work: pathlib.Path, env: dict) -> None:
    """Every way the repository is run, outside its tests."""
    exp = [sys.executable, "-m", "repro.experiments"]
    run(exp + ["all", "--quick", "--no-cache", "--workers", "1"])
    for script in sorted((ROOT / "examples").glob("*.py")):
        run([sys.executable, str(script)])
    run(exp + ["ext_fuzz", "--no-cache", "--workers", "2"])
    run(exp + ["ext_fuzz", "--seed", "9", "--count", "1", "--no-cache"])
    trace = str(work / "fig9.jsonl")
    run(exp + ["fig9", "--quick", "--no-cache", "--workers", "2", "--trace", trace,
               "--timeline-window", "4096"])
    run(exp + ["report", "--trace", trace])
    run(exp + ["diff", "--baseline", trace, "--trace", trace])
    run(exp + ["fig9", "--quick", "--no-cache", "--workers", "1",
               "--trace", str(work / "fig9.chrome.json"), "--trace-format", "chrome"])
    run(exp + ["report", "--trace", str(work / "fig9.chrome.json")])
    for i in (1, 2):
        run(exp + ["fig9", "--quick", "--workers", "2", "--shard", f"{i}/2",
                   "--cache-dir", str(work / f"shard{i}"),
                   "--trace", str(work / f"shard{i}.jsonl")])
    run(exp + ["merge", "--stores", str(work / "shard1"), str(work / "shard2"),
               "--cache-dir", str(work / "merged"),
               "--traces", str(work / "shard1.jsonl"), str(work / "shard2.jsonl"),
               "--trace", str(work / "merged.jsonl")])
    cached = str(work / "cached.jsonl")
    run(exp + ["fig9", "--quick", "--workers", "1", "--cache-dir", str(work / "merged"),
               "--trace", cached])
    # A fresh run against a cached one moves every span: the diff's
    # verdict path, with bands wide enough that it cannot fail.
    run(exp + ["diff", "--baseline", cached, "--trace", trace,
               "--warn-pct", "1e9", "--fail-pct", "1e9"])
    run(exp + ["fig9", "--quick", "--workers", "1", "--backend", "oracle",
               "--shard", "1/2", "--cache-dir", str(work / "oracle-shard")])
    _service_smoke(run, work, env)
    run([sys.executable, str(ROOT / "benchmarks" / "e2e" / "run.py"), "--smoke"])


def take_census(commands=entry_points) -> Census:
    """Run ``commands(run, work, env)`` under the call hook and collect.

    ``run(argv)`` runs one command in the scratch directory ``work``,
    raises on a nonzero exit and returns its standard output; ``env`` is
    the profiled environment.
    """
    with tempfile.TemporaryDirectory(prefix="repro-census-") as tmp:
        tmp = pathlib.Path(tmp)
        out, work, userbase = tmp / "calls", tmp / "work", tmp / "userbase"
        out.mkdir()
        work.mkdir()
        site_dir = pathlib.Path(sysconfig.get_path(
            "purelib", f"{os.name}_user", {"userbase": str(userbase)}))
        site_dir.mkdir(parents=True)
        (site_dir / "usercustomize.py").write_text(
            _CALL_HOOK.format(out=str(out), prefix=str(PACKAGE) + os.sep))
        env = dict(os.environ, PYTHONUSERBASE=str(userbase),
                   PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT)]))

        def run(argv) -> str:
            print(f"[census] {' '.join(str(a) for a in argv[1:])}", file=sys.stderr)
            return subprocess.run(argv, cwd=work, env=env, check=True,
                                  stdout=subprocess.PIPE, text=True).stdout

        commands(run, work, env)
        reached = set()
        for path in out.glob("*.json"):
            reached.update(tuple(k) for k in json.loads(path.read_text()))
    return Census(tuple(package_functions()), frozenset(reached))


def main() -> int:
    print(take_census().format())
    return 0


if __name__ == "__main__":
    sys.exit(main())
