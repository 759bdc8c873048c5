"""Shared fixtures: the paper's running example and standard configurations."""

from __future__ import annotations

import pytest

from repro import DataLayout, ProgramBuilder, ultrasparc_i


@pytest.fixture
def hier():
    """The paper's simulated hierarchy (Section 6.1)."""
    return ultrasparc_i()


def build_fig2(n: int = 128):
    """The paper's Figure 2 example: three (n, n) arrays, two nests.

    Nest 1 touches A, B, C and their next columns; nest 2 reads a
    three-column window of B plus C.  Statement targets are elided exactly
    as in the paper's figure ("= A(i,j) + A(i,j+1)"), so the reference
    sets -- and hence the Section 4 accounting -- match the paper's
    walkthrough verbatim.
    """
    b = ProgramBuilder(f"fig2_{n}")
    A = b.array("A", (n, n))
    B = b.array("B", (n, n))
    C = b.array("C", (n, n))
    i, j = b.vars("i", "j")
    b.nest(
        [b.loop(j, 2, n - 1), b.loop(i, 1, n)],
        [
            b.use(reads=[A[i, j], A[i, j + 1]], flops=1),
            b.use(reads=[B[i, j], B[i, j + 1]], flops=1),
            b.use(reads=[C[i, j], C[i, j + 1]], flops=1),
        ],
        label="nest1",
    )
    b.nest(
        [b.loop(j, 2, n - 1), b.loop(i, 1, n)],
        [
            b.use(reads=[B[i, j - 1], B[i, j], B[i, j + 1]], flops=2),
            b.use(reads=[C[i, j]], flops=0),
        ],
        label="nest2",
    )
    return b.build()


@pytest.fixture
def fig2():
    """Figure 2 at a cache-resonant size (columns divide the L1 cache)."""
    return build_fig2(2048)


@pytest.fixture
def fig2_small():
    """Figure 2 at a small size for fast exact simulations."""
    return build_fig2(64)


@pytest.fixture
def fig2_layout(fig2):
    return DataLayout.sequential(fig2)


def timeline_totals(timeline) -> list[tuple[int, int]]:
    """Per-level ``(accesses, misses)`` summed over a timeline's windows."""
    sums = [[0, 0] for _ in timeline.levels]
    for row in timeline.rows():
        for i, (acc, miss) in enumerate(row[3]):
            sums[i][0] += acc
            sums[i][1] += miss
    return [(a, m) for a, m in sums]


def predict(program, layout, hierarchy):
    """The analytic prediction of a whole program, cold caches."""
    from repro.exec.jobs import SimJob
    from repro.model import predict_job

    return predict_job(SimJob(program=program, layout=layout, hierarchy=hierarchy))
