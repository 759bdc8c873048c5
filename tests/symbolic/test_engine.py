"""The exactness proof's per-level verdicts.

Exact classifications must carry the right distinct-line counts (the
predictor's counts at those levels are checked against ``SimJob.run()``
in ``tests/model/test_predictor.py``); inexact classifications must
carry the right downgrade reason.
"""

from __future__ import annotations

import pytest

from repro import DataLayout, ProgramBuilder
from repro.cache.config import CacheConfig, HierarchyConfig
from repro.exec.jobs import SimJob
from repro.symbolic import (
    LevelClassification,
    classify_job,
    classify_program,
    lines,
)
from tests.search.conftest import build_pingpong, build_tiny_hier


def roomy_hier() -> HierarchyConfig:
    return HierarchyConfig(
        levels=(
            CacheConfig(size=16 * 1024, line_size=32, name="L1"),
            CacheConfig(size=64 * 1024, line_size=64, name="L2"),
        )
    )


def build_small(n: int = 16):
    """Two tiny arrays, one pass each -- fits everywhere."""
    b = ProgramBuilder("small")
    A = b.array("A", (n,))
    B = b.array("B", (n,))
    (i,) = b.vars("i")
    b.nest([b.loop(i, 1, n)], [b.assign(B[i], reads=[A[i]], flops=1)])
    return b.build()


def build_big(n: int = 4096):
    """One 32 KB array: provably overflows every tiny level's capacity."""
    b = ProgramBuilder("big")
    A = b.array("A", (n,))
    (i,) = b.vars("i")
    b.nest([b.loop(i, 1, n)], [b.use(reads=[A[i]])])
    return b.build()


def reasons(classification) -> list[str]:
    return [c.reason for c in classification]


class TestClassify:
    def test_exact_on_roomy_hierarchy(self):
        program = build_small()
        layout = DataLayout.sequential(program)
        cls = classify_program(program, layout, roomy_hier())
        assert all(c.exact for c in cls)
        # 16 doubles per array = 4 lines of 32 B each, 8 total at L1;
        # at L2 (64 B lines) each array collapses to 2 lines.
        assert cls[0].distinct_lines == 8
        assert cls[1].distinct_lines == 4

    def test_capacity_prefilter(self):
        program = build_big()
        layout = DataLayout.sequential(program)
        cls = classify_program(program, layout, build_tiny_hier())
        assert reasons(cls) == ["capacity", "inherited"]
        assert cls[0].distinct_lines is None
        assert "alone spans" in cls[0].detail

    def test_interference_downgrade(self):
        # Two 4-line arrays padded exactly one cache size apart: same
        # sets, direct-mapped, occupancy 2 -- evictions occur even though
        # the 8-line footprint is far below the 32-line capacity.  (The
        # pad goes *before* the padded array, so pad B to move it.)
        program = build_small()
        layout = DataLayout.sequential(program).with_pad("B", 1024 - 128)
        cls = classify_program(program, layout, build_tiny_hier())
        assert reasons(cls)[0] == "interference"
        assert not cls[0].exact
        # L2 is roomy and padding-free in set terms, but sits below an
        # inexact level, so it inherits.
        assert reasons(cls)[1] == "inherited"

    def test_line_split_downgrade(self):
        hier = HierarchyConfig(
            levels=(
                CacheConfig(size=16 * 1024, line_size=32, name="L1"),
                CacheConfig(size=48 * 1024, line_size=48, name="L2"),
            )
        )
        program = build_small()
        layout = DataLayout.sequential(program)
        cls = classify_program(program, layout, hier)
        assert cls[0].exact
        assert reasons(cls)[1] == "line-split"

    def test_budget_downgrade(self, monkeypatch):
        monkeypatch.setattr(lines, "MAX_OFFSETS", 4)
        program = build_small()
        layout = DataLayout.sequential(program)
        cls = classify_program(program, layout, roomy_hier())
        assert reasons(cls) == ["budget", "inherited"]

    def test_footprint_capacity_downgrade(self):
        # A row of A: reads 128 B apart, each on a new 32 B line -- 64
        # lines against L1's 32.  The per-reference lower bound cannot
        # see it (the gaps exceed a line), so the enumerated footprint
        # proves the overflow.
        b = ProgramBuilder("wide")
        A = b.array("A", (16, 64))
        (i,) = b.vars("i")
        b.nest([b.loop(i, 1, 64)], [b.use(reads=[A[1, i]])])
        program = b.build()
        layout = DataLayout.sequential(program)
        cls = classify_program(program, layout, build_tiny_hier())
        assert reasons(cls) == ["capacity", "inherited"]
        assert cls[0].detail.startswith("footprint spans")

    def test_deterministic(self):
        program = build_pingpong()
        layout = DataLayout.sequential(program)
        a = classify_program(program, layout, build_tiny_hier())
        b = classify_program(program, layout, build_tiny_hier())
        assert a == b


class TestClassifyJob:
    def test_custom_trace_downgrade(self):
        program = build_small()
        job = SimJob(
            program,
            DataLayout.sequential(program),
            roomy_hier(),
            kernel="dot",
        )
        cls = classify_job(job)
        assert reasons(cls) == ["custom-trace", "custom-trace"]
        assert all(not c.exact for c in cls)

    def test_nest_index_restricts_footprint(self):
        b = ProgramBuilder("two_nests")
        A = b.array("A", (16,))
        B = b.array("B", (1024,))
        (i,) = b.vars("i")
        b.nest([b.loop(i, 1, 16)], [b.use(reads=[A[i]])])
        b.nest([b.loop(i, 1, 1024)], [b.use(reads=[B[i]])])
        program = b.build()
        layout = DataLayout.sequential(program)
        whole = SimJob(program, layout, build_tiny_hier())
        first = SimJob(program, layout, build_tiny_hier(), nest_index=0)
        assert not all(c.exact for c in classify_job(whole))
        assert all(c.exact for c in classify_job(first))


class TestLevelClassification:
    def test_container_shape(self):
        c = LevelClassification("L1", True, distinct_lines=7)
        assert c.exact and c.distinct_lines == 7 and c.reason == ""
