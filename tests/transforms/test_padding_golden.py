"""Golden inter-variable pads for every padding heuristic.

``padding_golden.json`` records the pads PAD, MULTILVLPAD, the
explicit-level PAD, GROUPPAD (two L1 geometries), recursive GROUPPAD and
GROUPPAD + L2MAXPAD choose for every registry kernel and twenty fuzzed
programs.  Any change to a padding decision shows up here as a diff.

Regenerate the fixture only when a layout change is intended::

    PYTHONPATH=src python -m tests.transforms.test_padding_golden
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import DataLayout, ultrasparc_i
from repro.errors import ReproError
from repro.fuzz import fuzzed_workloads
from repro.kernels.registry import KERNELS
from repro.transforms.grouppad import grouppad, grouppad_recursive
from repro.transforms.maxpad import l2maxpad
from repro.transforms.pad import multilvl_pad, pad, pad_explicit_levels

FIXTURE = Path(__file__).with_name("padding_golden.json")
FUZZ_SEED, FUZZ_COUNT = 0, 20

HIER = ultrasparc_i()
# A smaller two-level hierarchy keeps recursive GROUPPAD's L1 phase cheap.
SMALL_HIER = ultrasparc_i(l1_size=4096, l1_line=32, l2_size=65536, l2_line=64)


def _programs():
    progs = {f"kernel:{name}": k.program() for name, k in KERNELS.items()}
    for case_seed, prog, _ in fuzzed_workloads(FUZZ_SEED, FUZZ_COUNT):
        progs[f"fuzz:{case_seed}"] = prog
    return progs


PROGRAMS = _programs()


def _pads(fn):
    try:
        return list(fn().pads)
    except ReproError as exc:
        return {"error": type(exc).__name__}


def padding_decisions(prog) -> dict:
    """Pads (or the error class) every heuristic picks from the sequential layout."""
    seq = DataLayout.sequential(prog)
    l1 = HIER.l1
    out = {
        "pad": _pads(lambda: pad(prog, seq, l1.size, l1.line_size)),
        "multilvl_pad": _pads(lambda: multilvl_pad(prog, seq, HIER)),
        "pad_explicit_levels": _pads(lambda: pad_explicit_levels(prog, seq, HIER)),
        "grouppad_16k": _pads(lambda: grouppad(prog, seq, 16384, 32)),
        "grouppad_4k": _pads(lambda: grouppad(prog, seq, 4096, 32)),
        "grouppad_recursive": _pads(
            lambda: grouppad_recursive(prog, seq, SMALL_HIER)
        ),
    }
    gp = out["grouppad_16k"]
    out["grouppad_l2maxpad"] = (
        gp if isinstance(gp, dict)
        else _pads(lambda: l2maxpad(prog, seq.with_pads(dict(zip(seq.order, gp))), HIER))
    )
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_program(golden):
    assert sorted(golden) == sorted(PROGRAMS)


@pytest.mark.parametrize("case", sorted(PROGRAMS))
def test_pads_match_golden(golden, case):
    assert padding_decisions(PROGRAMS[case]) == golden[case]


if __name__ == "__main__":
    FIXTURE.write_text(
        json.dumps(
            {case: padding_decisions(p) for case, p in sorted(PROGRAMS.items())},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {FIXTURE}")
