"""The footprint enumeration vs. the trace: same offsets, no trace.

Every test here has a brute-force referee: materialize the full address
trace (:func:`repro.trace.generate_trace`) and take ``np.unique``.  The
row-grouped enumeration must reproduce that set exactly on every program
shape -- rectangular, strided, reversed, triangular, min-bounded tiles --
or return ``None`` when budgeted out, never a wrong set.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import DataLayout, ProgramBuilder
from repro.cache.config import CacheConfig
from repro.ir.affine import AffineExpr
from repro.ir.loops import Loop
from repro.symbolic import lines
from repro.symbolic.lines import (
    distinct_lines,
    distinct_offsets,
    max_set_occupancy,
    ref_distinct_offsets,
    unique_ref_exprs,
)
from repro.trace import generate_trace


def build_2d(n: int = 10):
    b = ProgramBuilder("two_d")
    A = b.array("A", (n, n))
    B = b.array("B", (n,))
    i, j = b.vars("i", "j")
    b.nest(
        [b.loop(i, 1, n), b.loop(j, 1, n)],
        [b.assign(A[i, j], reads=[A[i, j - 1], B[j]], flops=1)],
    )
    return b.build()


def build_triangular(n: int = 12):
    b = ProgramBuilder("tri")
    A = b.array("A", (n, n))
    i, j, k = b.vars("i", "j", "k")
    b.nest(
        [b.loop(k, 1, n - 1), b.loop(j, k + 1, n), b.loop(i, k + 1, n)],
        [b.assign(A[i, j], reads=[A[i, k], A[k, j]], flops=2)],
    )
    return b.build()


def build_tiled_matmul(n: int = 10, t: int = 4):
    """Figure 8's tiled matrix multiply: ``min``-bounded inner loops, so
    full and partial tiles give rows with different trip counts."""
    b = ProgramBuilder("tiled_matmul")
    A = b.array("A", (n, n))
    B = b.array("B", (n, n))
    C = b.array("C", (n, n))
    kk, jj, i, k, j = b.vars("kk", "jj", "i", "k", "j")
    last = (AffineExpr.wrap(n),)
    b.nest(
        [
            b.loop(kk, 1, n, step=t),
            b.loop(jj, 1, n, step=t),
            b.loop(i, 1, n),
            Loop("k", kk, kk + (t - 1), extra_uppers=last),
            Loop("j", jj, jj + (t - 1), extra_uppers=last),
        ],
        [b.assign(C[i, j], reads=[C[i, j], A[i, k], B[k, j]], flops=2)],
    )
    return b.build()


def build_strided_reverse(n: int = 20):
    b = ProgramBuilder("strided")
    A = b.array("A", (n,))
    (i,) = b.vars("i")
    b.nest([b.loop(i, n - 1, 1, step=-3)], [b.use(reads=[A[i]])])
    b.nest([b.loop(i, 2, n, step=2)], [b.assign(A[i], reads=[A[i - 1]])])
    return b.build()


def build_dup_refs(n: int = 8):
    """Three syntactically distinct statements hitting two unique exprs."""
    b = ProgramBuilder("dups")
    A = b.array("A", (n,))
    (i,) = b.vars("i")
    b.nest(
        [b.loop(i, 1, n)],
        [
            b.use(reads=[A[i], A[i]]),
            b.use(reads=[A[i - 1]]),
        ],
    )
    return b.build()


PROGRAMS = {
    "two_d": build_2d,
    "triangular": build_triangular,
    "strided_reverse": build_strided_reverse,
    "dups": build_dup_refs,
    "tiled_matmul": build_tiled_matmul,
}


class TestAgainstTrace:
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_matches_brute_force_unique(self, name):
        program = PROGRAMS[name]()
        layout = DataLayout.sequential(program)
        expected = np.unique(generate_trace(program, layout))
        got = distinct_offsets(program, layout)
        assert got is not None
        np.testing.assert_array_equal(got, expected)

    def test_padded_layout_shifts_offsets(self):
        program = build_2d()
        base = DataLayout.sequential(program)
        padded = base.with_pad("A", 64)
        a = distinct_offsets(program, base)
        b = distinct_offsets(program, padded)
        np.testing.assert_array_equal(a, np.unique(generate_trace(program, base)))
        np.testing.assert_array_equal(
            b, np.unique(generate_trace(program, padded))
        )
        assert not np.array_equal(a, b)


class TestBudgets:
    def test_offset_budget_returns_none(self, monkeypatch):
        monkeypatch.setattr(lines, "MAX_OFFSETS", 8)
        program = build_2d(32)
        layout = DataLayout.sequential(program)
        nest = program.nests[0]
        expr = unique_ref_exprs(program, layout, nest)[0]
        assert ref_distinct_offsets(nest, expr) is None
        assert distinct_offsets(program, layout) is None

    def test_step_budget_returns_none(self, monkeypatch):
        # The triangular nest has 66 rows; allow only 3.
        monkeypatch.setattr(lines, "MAX_ROWS", 3)
        program = build_triangular()
        layout = DataLayout.sequential(program)
        assert distinct_offsets(program, layout) is None

    def test_generous_budget_is_not_tripped(self):
        program = build_strided_reverse()
        layout = DataLayout.sequential(program)
        assert distinct_offsets(program, layout) is not None


class TestStop:
    def test_stops_once_the_level_overflows(self):
        program = build_2d(32)  # 8 KB of A alone
        layout = DataLayout.sequential(program)
        cache = CacheConfig(size=1024, line_size=32, name="L1")
        full = distinct_offsets(program, layout)
        part = distinct_offsets(program, layout, stop=cache)
        assert part.size < full.size
        assert np.isin(part, full).all()
        assert distinct_lines(part, cache.line_size).size > cache.num_lines

    def test_full_footprint_when_it_fits(self):
        program = build_2d()
        layout = DataLayout.sequential(program)
        cache = CacheConfig(size=16 * 1024, line_size=32, name="L1")
        np.testing.assert_array_equal(
            distinct_offsets(program, layout, stop=cache),
            distinct_offsets(program, layout),
        )


class TestUniqueRefExprs:
    def test_dedup_by_absolute_expr(self):
        program = build_dup_refs()
        layout = DataLayout.sequential(program)
        exprs = unique_ref_exprs(program, layout, program.nests[0])
        # A[i] is read twice and A[i-1] once; only the two distinct
        # absolute expressions survive.
        assert len(exprs) == 2

    def test_distinct_bases_stay_distinct(self):
        program = build_2d()
        layout = DataLayout.sequential(program)
        exprs = unique_ref_exprs(program, layout, program.nests[0])
        assert len(exprs) == len(set(exprs))


class TestLineMapping:
    def test_distinct_lines_floor_division(self):
        offsets = np.array([0, 8, 31, 32, 33, 95, 96], dtype=np.int64)
        np.testing.assert_array_equal(
            distinct_lines(offsets, 32), np.array([0, 1, 2, 3])
        )

    def test_distinct_lines_empty(self):
        empty = np.empty(0, dtype=np.int64)
        assert distinct_lines(empty, 32).size == 0

    def test_max_set_occupancy(self):
        cache = CacheConfig(size=1024, line_size=32, name="L1")  # 32 sets
        assert cache.num_sets == 32
        # Lines 0, 32, 64 collide in set 0; line 1 sits alone in set 1.
        lines = np.array([0, 32, 64, 1], dtype=np.int64)
        assert max_set_occupancy(lines, cache) == 3
        assert max_set_occupancy(np.empty(0, dtype=np.int64), cache) == 0

    def test_no_eviction_bound_matches_line_count(self):
        # Fewer lines than sets -> occupancy can never exceed 1 only if
        # lines land in distinct sets; consecutive lines do.
        cache = CacheConfig(size=1024, line_size=32, name="L1")
        lines = np.arange(16, dtype=np.int64)
        assert max_set_occupancy(lines, cache) == 1
