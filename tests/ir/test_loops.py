"""Loops, statements, nests."""

import pytest

from repro.errors import IRError
from repro.ir.affine import const, var
from repro.ir.loops import Loop, LoopNest, Statement
from repro.ir.refs import ArrayRef


def ref(name="A", *subs, write=False):
    return ArrayRef(name, subs or (var("i"),), is_write=write)


class TestLoop:
    def test_trip_count(self):
        assert Loop("i", const(1), const(10)).trip_count() == 10
        assert Loop("i", const(1), const(10), step=3).trip_count() == 4
        assert Loop("i", const(10), const(1)).trip_count() == 0
        assert Loop("i", const(10), const(1), step=-1).trip_count() == 10

    def test_min_style_upper_bounds(self):
        lp = Loop("i", const(5), const(100), extra_uppers=(const(8),))
        assert lp.trip_count() == 4  # 5..min(100, 8)
        assert lp.effective_upper({}) == 8

    def test_extra_uppers_require_positive_step(self):
        with pytest.raises(IRError):
            Loop("i", const(10), const(1), step=-1, extra_uppers=(const(5),))

    def test_bounds_cannot_self_reference(self):
        with pytest.raises(IRError):
            Loop("i", var("i"), const(10))

    def test_zero_step_rejected(self):
        with pytest.raises(IRError):
            Loop("i", const(1), const(10), step=0)

    def test_symbolic_bounds_not_rectangular(self):
        lp = Loop("j", var("k") + 1, const(10))
        assert not lp.is_rectangular
        with pytest.raises(IRError):
            lp.trip_count()


class TestStatement:
    def test_reads_and_write_partition(self):
        st = Statement((ref("A"), ref("B"), ref("C", write=True)), flops=2)
        assert [(r.array, r.is_write) for r in st.refs] == [
            ("A", False), ("B", False), ("C", True)]

    def test_at_most_one_store(self):
        with pytest.raises(IRError):
            Statement((ref("A", write=True), ref("B", write=True)))

    def test_no_refs_rejected(self):
        with pytest.raises(IRError):
            Statement(())


class TestLoopNest:
    def make(self):
        return LoopNest(
            loops=(Loop("j", const(1), const(4)), Loop("i", const(1), const(3))),
            body=(Statement((ArrayRef("A", (var("i"), var("j"))),)),),
        )

    def test_iterations_rectangular(self):
        assert self.make().iterations() == 12

    def test_iterations_triangular(self):
        nest = LoopNest(
            loops=(
                Loop("k", const(1), const(4)),
                Loop("i", var("k"), const(4)),
            ),
            body=(Statement((ArrayRef("A", (var("i"), var("k"))),)),),
        )
        assert nest.iterations() == 4 + 3 + 2 + 1

    def test_iterations_with_min_bounds(self):
        nest = LoopNest(
            loops=(
                Loop("ii", const(1), const(10), step=4),
                Loop(
                    "i", var("ii"), var("ii") + 3, extra_uppers=(const(10),)
                ),
            ),
            body=(Statement((ArrayRef("A", (var("i"),)),)),),
        )
        assert nest.iterations() == 10  # 4 + 4 + 2

    def test_refs_in_statement_order(self):
        nest = self.make()
        assert [r.array for r in nest.refs] == ["A"]

    def test_duplicate_loop_vars_rejected(self):
        with pytest.raises(IRError):
            LoopNest(
                loops=(Loop("i", const(1), const(2)), Loop("i", const(1), const(2))),
                body=(Statement((ref(),)),),
            )

    def test_bound_must_use_outer_vars_only(self):
        with pytest.raises(IRError):
            LoopNest(
                loops=(
                    Loop("j", var("i"), const(4)),  # i is *inner*, not outer
                    Loop("i", const(1), const(3)),
                ),
                body=(Statement((ArrayRef("A", (var("i"), var("j"))),)),),
            )

    def test_body_vars_must_be_declared(self):
        with pytest.raises(IRError):
            LoopNest(
                loops=(Loop("i", const(1), const(2)),),
                body=(Statement((ArrayRef("A", (var("q"),)),)),),
            )

    def test_reference_with_unknown_loop_variable_rejected(self):
        with pytest.raises(IRError, match="unknown loop variable 'k'"):
            LoopNest(
                loops=(Loop("j", const(1), const(4)), Loop("i", const(1), const(3))),
                body=(Statement((ArrayRef("A", (var("i"), var("k"))),)),),
            )

    def test_bound_on_inner_loop_variable_rejected(self):
        with pytest.raises(IRError, match="bound uses 'i'"):
            LoopNest(
                loops=(
                    Loop("k", const(1), const(4)),
                    Loop("j", var("k"), var("i")),  # i is the *inner* loop
                    Loop("i", const(1), const(3)),
                ),
                body=(Statement((ArrayRef("A", (var("i"), var("j"))),)),),
            )

    def test_counters(self):
        nest = LoopNest(
            loops=(Loop("i", const(1), const(2)),),
            body=(
                Statement((ref("A"), ref("B", write=True)), flops=3),
                Statement((ref("C"),), flops=1),
            ),
        )
        assert nest.refs_per_iteration == 3
        assert nest.flops_per_iteration == 4
        assert nest.arrays_used() == ("A", "B", "C")
