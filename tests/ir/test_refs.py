"""Array references and their offset expressions."""

import pytest

from repro.errors import IRError
from repro.ir.affine import var
from repro.ir.arrays import ArrayDecl
from repro.ir.refs import ArrayRef


@pytest.fixture
def decl():
    return ArrayDecl("A", (100, 100))


class TestOffsetExpr:
    def test_simple_ref(self, decl):
        r = ArrayRef("A", (var("i"), var("j")))
        off = r.offset_expr(decl)
        # (i-1)*8 + (j-1)*800
        assert off.coeff("i") == 8
        assert off.coeff("j") == 800
        assert off.constant == -808

    def test_column_offset_is_constant_delta(self, decl):
        a = ArrayRef("A", (var("i"), var("j")))
        b = ArrayRef("A", (var("i"), var("j") + 1))
        delta = b.offset_expr(decl) - a.offset_expr(decl)
        assert delta.is_constant
        assert delta.constant == 800  # one column

    def test_wrong_declaration_rejected(self, decl):
        r = ArrayRef("B", (var("i"), var("j")))
        with pytest.raises(IRError):
            r.offset_expr(decl)

    def test_rank_mismatch_rejected(self, decl):
        r = ArrayRef("A", (var("i"),))
        with pytest.raises(IRError):
            r.offset_expr(decl)


class TestUniformlyGenerated:
    def test_constant_shift_is_uniform(self):
        a = ArrayRef("A", (var("i"), var("j")))
        b = ArrayRef("A", (var("i") + 1, var("j") - 2))
        assert a.is_uniformly_generated_with(b)

    def test_different_arrays_not_uniform(self):
        a = ArrayRef("A", (var("i"),))
        b = ArrayRef("B", (var("i"),))
        assert not a.is_uniformly_generated_with(b)

    def test_transposed_subscripts_not_uniform(self):
        a = ArrayRef("A", (var("i"), var("j")))
        b = ArrayRef("A", (var("j"), var("i")))
        assert not a.is_uniformly_generated_with(b)

    def test_scaled_subscript_not_uniform(self):
        a = ArrayRef("A", (var("i"),))
        b = ArrayRef("A", (2 * var("i"),))
        assert not a.is_uniformly_generated_with(b)


class TestRewriting:
    def test_rename_preserves_write_flag(self):
        r = ArrayRef("A", (var("i"),), is_write=True)
        assert r.rename({"i": "k"}).is_write

    def test_variables_sorted_unique(self):
        r = ArrayRef("A", (var("j") + var("i"), var("i")))
        assert r.variables == ("i", "j")


class TestValidation:
    def test_needs_subscripts(self):
        with pytest.raises(IRError):
            ArrayRef("A", ())

    def test_needs_name(self):
        with pytest.raises(IRError):
            ArrayRef("", (var("i"),))

    def test_int_subscripts_coerced(self):
        r = ArrayRef("A", (5,))
        assert r.subscripts[0].is_constant
