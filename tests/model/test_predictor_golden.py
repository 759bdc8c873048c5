"""Golden analytic predictions for every registry kernel and fuzzed program.

``predictor_golden.json`` records, per (program, layout, hierarchy):
each level's :func:`~repro.model.predict_job` miss count (as the
float's ``repr``), its ``exact`` flag and ``note``; the scheduler's
:func:`~repro.exec.cost.job_cost`; the same level records of
:func:`~repro.model.predict_job` on a multi-nest program's last nest
alone; and per level the severe-conflict
pairs of :func:`~repro.layout.conflicts.program_severe_conflicts` (count
and fixable flags).  Per program it records every nest's
:func:`~repro.analysis.footprint.nest_footprint_bytes`.  Any change to
an analytic number shows up here as a diff.

The population is the 26 registry kernels at small sizes, each under
its sequential layout and one padded layout, on the paper's UltraSparc
I hierarchy and a 2-way and a 4-way hierarchy; plus thirty fuzzed
programs (sequential layouts) on the symbolic cross-validation
hierarchies.

Regenerate the fixture only when an analytic change is intended::

    PYTHONPATH=src python -m tests.model.test_predictor_golden
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import DataLayout, ultrasparc_i
from repro.analysis.footprint import nest_footprint_bytes
from repro.cache.config import CacheConfig, HierarchyConfig
from repro.exec.cost import job_cost
from repro.exec.jobs import SimJob
from repro.experiments.ext_symbolic import CROSSVAL_HIERARCHIES
from repro.experiments.fig9_pad import QUICK_SIZES
from repro.fuzz import fuzzed_workloads
from repro.kernels.registry import KERNELS
from repro.layout.conflicts import program_severe_conflicts
from repro.model import predict_job

FIXTURE = Path(__file__).with_name("predictor_golden.json")
FUZZ_SEED, FUZZ_COUNT = 0, 30

#: Small problem sizes: Figure 9's quick sizes plus the two extra kernels.
SIZES = {**QUICK_SIZES, "matmul": 48, "timestep": 64}


def _hier(ways: int, l2_size: int) -> HierarchyConfig:
    return HierarchyConfig(
        levels=(
            CacheConfig(16 * 1024, 32, ways, "L1", 1.0),
            CacheConfig(l2_size, 64, ways, "L2", 6.0),
        ),
        memory_cycles=50.0,
    )


KERNEL_HIERARCHIES = {
    "ultrasparc_i": ultrasparc_i(),
    "2way": _hier(2, 512 * 1024),
    "4way": _hier(4, 256 * 1024),
}


def padded(layout: DataLayout) -> DataLayout:
    """A fixed, irregular padding: array ``k`` gets ``136 k mod 2048`` bytes."""
    return layout.with_pads(
        {name: (136 * k) % 2048 for k, name in enumerate(layout.order)}
    )


def _cases():
    """``case -> (program, kernel, {layout: ...}, {hierarchy: ...})``."""
    cases = {}
    for name, kernel in KERNELS.items():
        prog = kernel.program(SIZES[name])
        seq = DataLayout.sequential(prog)
        hook = name if kernel.custom_trace is not None else None
        cases[f"kernel:{name}"] = (
            prog, hook, {"seq": seq, "padded": padded(seq)}, KERNEL_HIERARCHIES
        )
    for case_seed, prog, layout in fuzzed_workloads(FUZZ_SEED, FUZZ_COUNT):
        cases[f"fuzz:{case_seed}"] = (
            prog, None, {"seq": layout}, CROSSVAL_HIERARCHIES
        )
    return cases


CASES = _cases()


def _levels(pred) -> list:
    return [[p.name, repr(p.misses), p.exact, p.note] for p in pred.predictions]


def analytic_record(case: str) -> dict:
    """Every analytic number the fixture pins for one case."""
    prog, kernel, layouts, hierarchies = CASES[case]
    out = {"footprint": [nest_footprint_bytes(prog, nest) for nest in prog.nests]}
    for lname, layout in layouts.items():
        for hname, hier in hierarchies.items():
            pred = predict_job(SimJob(prog, layout, hier))
            job = SimJob(prog, layout, hier, kernel=kernel)
            out[f"{lname}/{hname}"] = record = {
                "levels": _levels(pred),
                "job_cost": list(job_cost(job)),
                "conflicts": [
                    [p.fixable for p in program_severe_conflicts(
                        prog, layout, c.size, c.line_size
                    ).pairs]
                    for c in hier.levels
                ],
            }
            if len(prog.nests) > 1:
                last = SimJob(prog.with_nests(prog.nests[-1:]), layout, hier)
                record["last_nest"] = _levels(predict_job(last))
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_analytic_numbers_match_golden(golden, case):
    assert analytic_record(case) == golden[case]


if __name__ == "__main__":
    # One line per case, so a changed number diffs as one changed case.
    FIXTURE.write_text(
        "{\n"
        + ",\n".join(
            f"{json.dumps(case)}: "
            + json.dumps(analytic_record(case), sort_keys=True)
            for case in sorted(CASES)
        )
        + "\n}\n"
    )
    print(f"wrote {FIXTURE}")
