"""Uniform classes and reuse arcs."""

import pytest

from repro import ProgramBuilder
from repro.analysis.groups import reuse_arcs, uniform_classes
from tests.conftest import build_fig2


class TestUniformClasses:
    def test_fig2_nest1_classes(self):
        prog = build_fig2(64)
        classes = uniform_classes(prog, prog.nests[0])
        by_array = {c.array: c for c in classes}
        assert set(by_array) == {"A", "B", "C"}
        for c in classes:
            assert len(c.refs) == 2  # (i,j) and (i,j+1)
            assert c.offsets == (0, 64 * 8)  # one column apart

    def test_fig2_nest2_b_class_window(self):
        prog = build_fig2(64)
        classes = uniform_classes(prog, prog.nests[1])
        b_cls = next(c for c in classes if c.array == "B")
        assert len(b_cls.refs) == 3  # j-1, j, j+1
        assert b_cls.offsets == (0, 512, 1024)

    def test_duplicates_collapse_with_multiplicity(self):
        b = ProgramBuilder("dup")
        A = b.array("A", (16,))
        (i,) = b.vars("i")
        b.nest([b.loop(i, 1, 16)], [b.use(reads=[A[i], A[i], A[i]])])
        prog = b.build()
        (cls,) = uniform_classes(prog, prog.nests[0])
        assert cls.multiplicity == (3,)

    def test_non_uniform_refs_split_classes(self):
        b = ProgramBuilder("nu")
        A = b.array("A", (16, 16))
        i, j = b.vars("i", "j")
        b.nest(
            [b.loop(j, 1, 16), b.loop(i, 1, 16)],
            [b.use(reads=[A[i, j], A[j, i]])],
        )
        prog = b.build()
        classes = uniform_classes(prog, prog.nests[0])
        assert len(classes) == 2  # transposed subscripts are not uniform


class TestReuseArcs:
    def test_arcs_are_consecutive_pairs(self):
        prog = build_fig2(64)
        arcs = reuse_arcs(prog, prog.nests[1])
        b_arcs = [a for a in arcs if a.array == "B"]
        assert len(b_arcs) == 2
        for a in b_arcs:
            assert a.distance_bytes == 512  # one 64-element column

    def test_leading_has_larger_offset(self):
        prog = build_fig2(64)
        for arc in reuse_arcs(prog, prog.nests[0]):
            decl = prog.decl(arc.array)
            lead = arc.leading.offset_expr(decl)
            trail = arc.trailing.offset_expr(decl)
            assert (lead - trail).constant == arc.distance_bytes > 0

    def test_single_ref_class_has_no_arcs(self):
        b = ProgramBuilder("single")
        A = b.array("A", (16,))
        (i,) = b.vars("i")
        b.nest([b.loop(i, 1, 16)], [b.use(reads=[A[i]])])
        prog = b.build()
        assert reuse_arcs(prog, prog.nests[0]) == []

    def test_row_offset_arcs_have_small_distance(self):
        b = ProgramBuilder("row")
        A = b.array("A", (32, 32))
        i, j = b.vars("i", "j")
        b.nest(
            [b.loop(j, 1, 32), b.loop(i, 2, 31)],
            [b.use(reads=[A[i - 1, j], A[i + 1, j]])],
        )
        prog = b.build()
        (arc,) = reuse_arcs(prog, prog.nests[0])
        assert arc.distance_bytes == 16  # two elements apart
