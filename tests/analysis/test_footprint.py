"""Footprint / working-set estimates."""

from repro.analysis.footprint import nest_footprint_bytes, ref_span_bytes
from tests.conftest import build_fig2


class TestSpans:
    def test_ref_span_covers_touched_region(self):
        prog = build_fig2(64)
        nest = prog.nests[0]
        # A(i,j) for i in 1..64, j in 2..63 plus A(i,j+1): touches columns
        # 2..64 fully -> (64*63) elements span + one element.
        span = ref_span_bytes(prog, nest, "A")
        decl = prog.decl("A")
        lo = decl.element_offset((1, 2))
        hi = decl.element_offset((64, 64))
        assert span == hi - lo + 8

    def test_span_zero_for_untouched_array(self):
        prog = build_fig2(64)
        assert ref_span_bytes(prog, prog.nests[1], "A") == 0

    def test_nest_footprint_sums_arrays(self):
        prog = build_fig2(64)
        nest = prog.nests[0]
        total = nest_footprint_bytes(prog, nest)
        parts = sum(ref_span_bytes(prog, nest, a) for a in ("A", "B", "C"))
        assert total == parts


class TestColumns:
    def test_columns_in_cache_matches_paper_range(self):
        """Section 6.3.2: over sizes 250..520 the 16 KB L1 'can hold only
        3 to 8 columns'."""
        for n, lo, hi in [(250, 8, 8.5), (520, 3.5, 4.0)]:
            prog = build_fig2(n)
            cols = 16 * 1024 / prog.decl("A").column_size_bytes
            assert lo <= cols <= hi
