"""Self-tests of the benchmark harness.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Not collected by the tier-1 suite, whose ``testpaths`` is ``tests``.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
import time

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9_.-]+")
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def bench(*args, root: pathlib.Path = ROOT, timeout: float = 170.0):
    return subprocess.run(
        [sys.executable, str(root / "benchmarks" / "e2e" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=timeout,
    )


def summary(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def copy_benchmark(dest: pathlib.Path, with_sources: bool) -> pathlib.Path:
    """``BENCHMARK.json`` and the benchmark package under ``dest``; with
    ``with_sources`` the repository's sources and results are linked in."""
    shutil.copytree(ROOT / "benchmarks" / "e2e", dest / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    if with_sources:
        for name in ("src", "results"):
            (dest / name).symlink_to(ROOT / name)
    return dest


def test_names_are_well_formed_and_unique():
    names = [d["name"] for d in DECLARED["end_to_end"] + DECLARED["per_layer"]]
    names += WORKLOADS
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_workload_emits_exactly_its_declared_metrics(trace, section):
    start = time.monotonic()
    proc = bench("--smoke", "--seconds", "1", "--trace", str(trace))
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stderr
    out = summary(proc)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    assert set(out["metrics"]) == {
        f"{w}.{d['name']}" for w in WORKLOADS for d in DECLARED[section]
    }
    for d in DECLARED[section]:
        for w in WORKLOADS:
            assert out["metrics"][f"{w}.{d['name']}"]["unit"] == d["unit"]
    if trace == 0:
        assert elapsed < 60.0
        assert all(v["value"] > 0 for v in out["metrics"].values())


def test_a_wrong_expected_count_fails_the_run(tmp_path):
    root = copy_benchmark(tmp_path, with_sources=True)
    expected = root / "benchmarks" / "e2e" / "expected" / "fuzz.json"
    data = json.loads(expected.read_text())
    data["0/dm"][2] += 1  # L1 misses of fuzz program 0 on the "dm" hierarchy
    expected.write_text(json.dumps(data))
    proc = bench("--workload", "fuzz-cold", "--smoke", "--seconds", "1", root=root)
    assert proc.returncode == 1
    assert "fuzz-cold wrong_results 1 count" in proc.stdout.splitlines()
    assert summary(proc)["correct"] is False


def test_refused_requests_count_as_errors(tmp_path):
    from benchmarks.e2e.service_load import Server, drive, summarize, tune
    from repro.service.client import TuningClient

    (tmp_path / "store").mkdir()
    server = Server(ROOT, tmp_path / "store", tmp_path / "server.log",
                    extra_args=["--queue-limit", "1"])
    try:
        client = TuningClient(port=server.port)
        warm = {"kernel": "dot", "n": 1024, "budget": 2, "max_lines": 1}
        assert tune(client, warm)[0] == 200
        # Occupy the only admission slot, so every cold request is refused.
        blocker = {"kernel": "expl", "n": 192, "budget": 8, "max_lines": 2}
        assert client.tune(blocker, wait=False)[0] == 202
        before = client.metrics()
        traffic = drive(server.port, seed=0, seconds=0.3, warm_pool=[warm])
        _, attempted, failed = summarize(traffic, before, client.metrics(), 1.0)
    finally:
        server.stop()
    assert {s.status for s in traffic.cold} == {429}
    assert failed == len(traffic.cold) and attempted > failed > 0


def test_the_same_seed_regenerates_identical_fuzz_jobs():
    script = ("from benchmarks.e2e.workloads import FuzzCold\n"
              "import sys\n"
              "w = FuzzCold(int(sys.argv[1]), 1.0, smoke=True)\n"
              "w.setup()\n"
              "print(' '.join(job.key() for job in w.jobs))\n")

    def keys(seed: int) -> list[str]:
        out = subprocess.run(
            [sys.executable, "-c", script, str(seed)], cwd=ROOT, check=True,
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)])),
        )
        return out.stdout.split()

    first, again, other = keys(7), keys(7), keys(8)
    assert first == again
    assert sorted(first) == sorted(other) and first != other


def test_without_sources_it_fails_without_a_result(tmp_path):
    root = copy_benchmark(tmp_path, with_sources=False)
    proc = bench("--workload", "fig9", root=root, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def write_runs(path: pathlib.Path, values: list[float]) -> pathlib.Path:
    runs = [{"workload": "fig9", "trace": 0, "smoke": False,
             "metrics": {"jobs_per_s": v}} for v in values]
    path.write_text(json.dumps({"runs": runs}))
    return path


@pytest.mark.parametrize("candidate, verdict", [
    ([3.0, 3.05, 2.95, 3.02, 2.98], "ok"),
    ([2.0, 2.05, 1.95, 2.02, 1.98], "worse"),
    ([1.0, 5.0, 2.0, 4.0, 3.0], "unresolved"),
])
def test_compare_verdicts(tmp_path, capsys, candidate, verdict):
    from benchmarks.e2e.compare import main

    baseline = write_runs(tmp_path / "a.json", [3.0, 3.05, 2.95, 3.02, 2.98])
    code = main([str(baseline), str(write_runs(tmp_path / "b.json", candidate))])
    line = next(l for l in capsys.readouterr().out.splitlines() if "jobs_per_s" in l)
    assert line.split()[-1] == verdict
    assert code == (0 if verdict == "ok" else 1)
