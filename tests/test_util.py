"""Utility helpers: modular arithmetic and table formatting."""

import pytest

from repro.util.mathutil import circular_distance
from repro.util.tabulate import format_table


class TestMathUtil:
    def test_circular_distance(self):
        assert circular_distance(0, 0, 1024) == 0
        assert circular_distance(10, 1020, 1024) == 14
        assert circular_distance(512, 0, 1024) == 512
        with pytest.raises(ValueError):
            circular_distance(1, 2, 0)


class TestTabulate:
    def test_alignment_and_floats(self):
        text = format_table(["name", "v"], [["a", 1.5], ["bb", 2.25]])
        lines = text.splitlines()
        assert lines[0].endswith("v")
        assert "1.50" in text and "2.25" in text

    def test_title_underlined(self):
        text = format_table(["x"], [[1]], title="T")
        assert text.splitlines()[0] == "T"
        assert set(text.splitlines()[1]) == {"="}

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_custom_float_format(self):
        text = format_table(["v"], [[3.14159]], floatfmt=".4f")
        assert "3.1416" in text
