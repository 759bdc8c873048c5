"""Call census: which functions of ``src/repro`` do the entry points reach?

    python benchmarks/census.py

Runs every entry point of the repository -- ``all --quick``, every
``examples/*.py``, a full ``ext_fuzz`` and a known-divergence replay, a
traced ``fig9 --quick`` (JSON lines and Chrome) with ``report`` and
``diff``, a two-shard ``fig9`` with ``merge`` and a replay, the
tuning-service smoke (serve, tune twice, metrics, SIGTERM) and
``benchmarks/e2e/run.py --smoke`` -- with a call hook in every Python
interpreter they start, then prints the reached and unreached function
lines of each ``repro`` module and the name of every unreached function.

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


@dataclass(frozen=True)
class Function:
    """One ``def`` in ``src/repro``, keyed like the code object it compiles to."""

    module: str
    qualname: str
    path: str
    firstlineno: int
    lines: int

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
        unreached: dict[str, list[Function]] = {}
        for fn in self.functions:
            row = per_module.setdefault(fn.module, [0, 0])
            if fn.key in self.reached:
                row[0] += fn.lines
            else:
                row[1] += fn.lines
                unreached.setdefault(fn.module, []).append(fn)
        width = max(len(m) for m in per_module)
        lines = [f"{'module':<{width}}  reached  unreached  (function lines)"]
        for module, (hit, miss) in sorted(per_module.items()):
            lines.append(f"{module:<{width}}  {hit:7d}  {miss:9d}")
        hit = sum(r[0] for r in per_module.values())
        miss = sum(r[1] for r in per_module.values())
        lines.append(f"{'total':<{width}}  {hit:7d}  {miss:9d}  "
                     f"of {hit + miss} function lines")
        lines.append("")
        lines.append("unreached functions (lines):")
        for module, fns in sorted(unreached.items()):
            lines.append(f"  {module}: " + ", ".join(
                f"{fn.qualname} ({fn.lines})" for fn in fns))
        return "\n".join(lines)


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _service_smoke(run, work: pathlib.Path, env: dict) -> None:
    """The CI service smoke: serve, tune one request twice, read the
    metrics in both formats, then SIGTERM and wait for the drain."""
    port = str(_free_port())
    client = [sys.executable, "-m", "repro.service.client", "--port", port]
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.experiments", "serve", "--port", port,
         "--store-dir", str(work / "svc-store"), "--trace", str(work / "svc.jsonl")],
        cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        for _ in range(120):
            if subprocess.run(client + ["healthz"], cwd=work, env=env,
                              capture_output=True).returncode == 0:
                break
            time.sleep(0.5)
        request = work / "request.json"
        request.write_text('{"kernel": "jacobi", "n": 48, "budget": 4, "max_lines": 2}')
        run(client + ["tune", str(request)])
        run(client + ["tune", str(request)])
        run(client + ["metrics"])
        run(client + ["metrics", "--format", "prometheus"])
    finally:
        server.send_signal(signal.SIGTERM)
        try:
            server.wait(timeout=120)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
            raise


def entry_points(run, work: pathlib.Path, env: dict) -> None:
    """Every way the repository is run, outside its tests."""
    exp = [sys.executable, "-m", "repro.experiments"]
    run(exp + ["all", "--quick", "--no-cache", "--workers", "1"])
    for script in sorted((ROOT / "examples").glob("*.py")):
        run([sys.executable, str(script)])
    run(exp + ["ext_fuzz", "--no-cache", "--workers", "2"])
    run(exp + ["ext_fuzz", "--seed", "9", "--count", "1", "--no-cache"])
    trace = str(work / "fig9.jsonl")
    run(exp + ["fig9", "--quick", "--no-cache", "--workers", "2", "--trace", trace])
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
    run(exp + ["fig9", "--quick", "--workers", "1", "--cache-dir", str(work / "merged")])
    _service_smoke(run, work, env)
    run([sys.executable, str(ROOT / "benchmarks" / "e2e" / "run.py"), "--smoke"])


def take_census(commands=entry_points) -> Census:
    """Run ``commands(run, work, env)`` under the call hook and collect.

    ``run(argv)`` runs one command in the scratch directory ``work``
    and raises on a nonzero exit; ``env`` is the profiled environment.
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

        def run(argv):
            print(f"[census] {' '.join(str(a) for a in argv[1:])}", file=sys.stderr)
            subprocess.run(argv, cwd=work, env=env, check=True,
                           stdout=subprocess.DEVNULL)

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
