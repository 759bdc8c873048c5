"""Microbenchmarks: the padding searches and tile-size selection.

Every benchmark carries ``group="transforms"`` so the recorder routes its
rows to ``BENCH_transforms.json``, which CI gates against the committed
baselines: losing GROUPPAD's one-pass candidate scoring fails the trend
gate instead of scrolling past.
"""

import pytest

from repro import DataLayout, ultrasparc_i
from repro.kernels import expl, shal
from repro.transforms.grouppad import grouppad
from repro.transforms.maxpad import l2maxpad
from repro.transforms.pad import multilvl_pad
from repro.transforms.tilesize import select_tile

pytestmark = pytest.mark.benchmark(group="transforms")

HIER = ultrasparc_i()


def test_bench_pad_expl(benchmark):
    prog = expl.build(512)
    seq = DataLayout.sequential(prog)
    out = benchmark(multilvl_pad, prog, seq, HIER)
    assert out.total_padding > 0


def test_bench_grouppad_shal(benchmark):
    """GROUPPAD's position search over 13 arrays (the heaviest search)."""
    prog = shal.build(512)
    seq = DataLayout.sequential(prog)
    out = benchmark.pedantic(
        grouppad, args=(prog, seq, HIER.l1.size, HIER.l1.line_size),
        rounds=10, iterations=1,
    )
    assert out.order == seq.order


def test_bench_l2maxpad_expl(benchmark):
    prog = expl.build(512)
    gp = grouppad(
        prog, DataLayout.sequential(prog), HIER.l1.size, HIER.l1.line_size
    )
    out = benchmark(l2maxpad, prog, gp, HIER)
    assert out.total_bytes >= gp.total_bytes


def test_bench_tile_selection_sweep(benchmark):
    def run():
        shapes = []
        for n in range(100, 401, 10):
            shapes.append(
                select_tile(
                    column_bytes=8 * n, element_size=8, rows=n, cols=n,
                    capacity_bytes=HIER.l1.size,
                )
            )
        return shapes

    shapes = benchmark(run)
    assert all(s.footprint_bytes(8) <= HIER.l1.size for s in shapes)
