"""Whole-program container."""

import pytest

from repro.errors import IRError
from repro.ir import ProgramBuilder
from repro.ir.arrays import ArrayDecl
from repro.ir.program import Program


def small_program():
    b = ProgramBuilder("p")
    A = b.array("A", (8, 8))
    B = b.array("B", (8,))
    i, j = b.vars("i", "j")
    b.nest(
        [b.loop(j, 1, 8), b.loop(i, 1, 8)],
        [b.assign(B[i], reads=[A[i, j]], flops=1)],
    )
    return b.build()


class TestProgram:
    def test_counts(self):
        p = small_program()
        assert p.total_refs() == 128  # 64 iterations x 2 refs
        assert p.total_flops() == 64
        assert p.total_data_bytes() == 8 * 8 * 8 + 8 * 8

    def test_decl_lookup(self):
        p = small_program()
        assert p.decl("A").shape == (8, 8)
        with pytest.raises(KeyError):
            p.decl("Z")

    def test_undeclared_ref_rejected(self):
        p = small_program()
        with pytest.raises(IRError):
            Program("bad", (p.decl("A"),), p.nests)  # B now undeclared

    def test_rank_mismatch_rejected(self):
        p = small_program()
        bad_arrays = (ArrayDecl("A", (8, 8, 8)), p.decl("B"))
        with pytest.raises(IRError):
            Program("bad", bad_arrays, p.nests)

    def test_duplicate_arrays_rejected(self):
        p = small_program()
        with pytest.raises(IRError):
            Program("bad", (p.decl("A"), p.decl("A"), p.decl("B")), p.nests)

    def test_replace_nest(self):
        p = small_program()
        q = p.replace_nest(0, p.nests[0])
        assert q.nests == p.nests

    def test_renamed(self):
        assert small_program().renamed("other").name == "other"


class TestBuilder:
    def test_duplicate_array_rejected(self):
        b = ProgramBuilder("p")
        b.array("A", (4,))
        with pytest.raises(IRError):
            b.array("A", (4,))

    def test_handle_indexing_rank_checked(self):
        b = ProgramBuilder("p")
        A = b.array("A", (4, 4))
        with pytest.raises(IRError):
            _ = A[b.vars("i")[0]]  # needs two subscripts

    def test_assign_orders_reads_then_write(self):
        b = ProgramBuilder("p")
        A = b.array("A", (4,))
        B = b.array("B", (4,))
        (i,) = b.vars("i")
        st = b.assign(A[i], reads=[B[i]])
        assert [r.is_write for r in st.refs] == [False, True]
        assert st.refs[1].array == "A"

    def test_loop_index_must_be_bare_variable(self):
        b = ProgramBuilder("p")
        (i,) = b.vars("i")
        with pytest.raises(IRError):
            b.loop(i + 1, 1, 4)

    def test_loop_accepts_string_name(self):
        b = ProgramBuilder("p")
        lp = b.loop("i", 1, 4)
        assert lp.var == "i"
