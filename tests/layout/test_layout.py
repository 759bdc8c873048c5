"""DataLayout: base addresses, pads, reordering."""

import pytest

from repro import DataLayout, ProgramBuilder
from repro.errors import LayoutError


def simple_program():
    b = ProgramBuilder("p")
    A = b.array("A", (100,))
    b.array("B", (50,))
    b.array("C", (10, 10))
    (i,) = b.vars("i")
    b.nest([b.loop(i, 1, 4)], [b.use(reads=[A[i]])])
    return b.build()


class TestSequential:
    def test_contiguous_bases(self):
        prog = simple_program()
        lay = DataLayout.sequential(prog)
        assert lay.base("A") == 0
        assert lay.base("B") == 800
        assert lay.base("C") == 1200
        assert lay.total_bytes == 2000

    def test_alignment_pads(self):
        b = ProgramBuilder("q")
        A = b.array("A", (3,), element_size=4)  # 12 bytes
        b.array("B", (4,))
        (i,) = b.vars("i")
        b.nest([b.loop(i, 1, 3)], [b.use(reads=[A[i]])])
        lay = DataLayout.sequential(b.build(), alignment=16)
        assert lay.base("B") % 16 == 0

    def test_origin(self):
        lay = DataLayout.sequential(simple_program(), origin=4096)
        assert lay.base("A") == 4096


class TestPads:
    def test_add_pad_shifts_self_and_later(self):
        lay = DataLayout.sequential(simple_program())
        padded = lay.add_pad("B", 64)
        assert padded.base("A") == lay.base("A")
        assert padded.base("B") == lay.base("B") + 64
        assert padded.base("C") == lay.base("C") + 64
        assert padded.total_padding == 64

    def test_with_pad_replaces(self):
        lay = DataLayout.sequential(simple_program()).add_pad("B", 64)
        assert lay.with_pad("B", 8).base("B") == 808

    def test_with_pads_bulk(self):
        lay = DataLayout.sequential(simple_program())
        got = lay.with_pads({"B": 32, "C": 96})
        assert got.base("B") == 832
        assert got.base("C") == 1200 + 32 + 96

    def test_negative_pad_rejected(self):
        lay = DataLayout.sequential(simple_program())
        with pytest.raises(LayoutError):
            lay.with_pad("B", -8)

    def test_unknown_array_rejected(self):
        lay = DataLayout.sequential(simple_program())
        with pytest.raises(LayoutError):
            lay.base("ZZZ")


class TestValidation:
    def test_field_lengths_checked(self):
        with pytest.raises(LayoutError):
            DataLayout(order=("A",), pads=(0, 0), sizes=(8,))

    def test_duplicate_names_rejected(self):
        with pytest.raises(LayoutError):
            DataLayout(order=("A", "A"), pads=(0, 0), sizes=(8, 8))

    def test_zero_size_rejected(self):
        with pytest.raises(LayoutError):
            DataLayout(order=("A",), pads=(0,), sizes=(0,))
