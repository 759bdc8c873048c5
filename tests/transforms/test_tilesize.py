"""Self-interference-free tile-size selection and the Section 5 lemma."""

import numpy as np
import pytest

from repro.cache.direct import miss_mask_direct
from repro.errors import TransformError
from repro.transforms.tilesize import TileShape, max_conflict_free_height, select_tile

L1 = 16 * 1024


class TestMaxHeight:
    def test_width_one_gets_whole_cache(self):
        assert max_conflict_free_height(3200, L1, 1, 8) == L1 // 8

    def test_resonant_column_gets_zero(self):
        # Column == cache: every tile column maps to position 0.
        assert max_conflict_free_height(L1, L1, 4, 8) == 0

    def test_gcd_structure(self):
        # col=3200 on 16384: positions are multiples of gcd=128, so the
        # minimum gap is 128 bytes; one 32B line of slack leaves 96 bytes.
        h = max_conflict_free_height(3200, L1, 128, 8)
        assert h == (128 - 32) // 8

    def test_small_width_large_gap(self):
        h2 = max_conflict_free_height(3200, L1, 2, 8)
        h64 = max_conflict_free_height(3200, L1, 64, 8)
        assert h2 >= h64  # fewer columns -> no smaller min gap

    def test_invalid_params(self):
        with pytest.raises(TransformError):
            max_conflict_free_height(0, L1, 4, 8)


class TestTileVerification:
    def tile_trace(self, col, w, h, elem=8):
        """Addresses of one W x H tile walked column by column, twice."""
        addrs = []
        for _ in range(2):
            for k in range(w):
                for r in range(h):
                    addrs.append(k * col + r * elem)
        return np.array(addrs)

    @pytest.mark.parametrize("col", [3200, 4096 + 64, 2056, 808])
    def test_selected_tile_truly_interference_free(self, col):
        """Simulate the selected tile: the second pass over it must be
        100% hits -- the definition of no self-interference."""
        shape = select_tile(
            column_bytes=col, element_size=8, rows=col // 8, cols=4096,
            capacity_bytes=L1,
        )
        trace = self.tile_trace(col, shape.width, shape.height)
        misses = miss_mask_direct(trace, L1, 32).sum()
        first_pass_lines = misses  # all first-pass cold misses allowed
        # Second pass contributes nothing: miss count equals unique lines.
        unique_lines = len(set(a // 32 for a in trace.tolist()))
        assert misses == unique_lines

    def test_capacity_budget_respected(self):
        shape = select_tile(
            column_bytes=3200, element_size=8, rows=400, cols=400,
            capacity_bytes=L1,
        )
        assert shape.footprint_bytes(8) <= L1

    def test_rows_cols_caps(self):
        shape = select_tile(
            column_bytes=80, element_size=8, rows=10, cols=10,
            capacity_bytes=L1,
        )
        assert shape.width <= 10 and shape.height <= 10

    def test_objective_prefers_balanced_tiles(self):
        """The selector minimizes 1/(2H)+1/(2W): a thin 1xH strip loses to
        any balanced conflict-free candidate of similar footprint."""
        shape = select_tile(
            column_bytes=3200, element_size=8, rows=400, cols=400,
            capacity_bytes=L1,
        )
        assert shape.width >= 8 and shape.height >= 8

    def test_resonant_column_falls_back_to_single_column(self):
        # Column == interference cache: any multi-column tile
        # self-interferes, so the selector degrades to width 1.
        shape = select_tile(
            column_bytes=L1, element_size=8, rows=2048, cols=4,
            capacity_bytes=L1,
        )
        assert shape.width == 1


class TestSection5Lemma:
    """'From modular arithmetic we can show tiles with no L1
    self-interference conflict misses will also have no L2 conflicts.'"""

    @pytest.mark.parametrize("col", [3200, 2056, 4160, 808, 10_000])
    @pytest.mark.parametrize("factor", [2, 8, 32])
    def test_l1_free_implies_l2_free(self, col, factor):
        l2 = L1 * factor
        for width in (2, 4, 8, 16):
            h1 = max_conflict_free_height(col, L1, width, 8)
            h2 = max_conflict_free_height(col, l2, width, 8)
            assert h2 >= h1  # distances only grow on the larger cache

    def test_tileshape_validation(self):
        with pytest.raises(TransformError):
            TileShape(width=0, height=4)
