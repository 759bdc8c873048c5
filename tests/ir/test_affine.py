"""Affine expression algebra."""

import numpy as np
import pytest

from repro.errors import IRError
from repro.ir.affine import AffineExpr, const, var


class TestConstruction:
    def test_var_and_const(self):
        i = var("i")
        assert i.coeff("i") == 1
        assert i.constant == 0
        assert const(5).is_constant
        assert const(5).constant == 5

    def test_zero_coefficients_dropped(self):
        e = var("i") - var("i")
        assert e.is_constant
        assert e.variables == ()

    def test_wrap(self):
        assert AffineExpr.wrap(3) == const(3)
        e = var("i")
        assert AffineExpr.wrap(e) is e
        with pytest.raises(IRError):
            AffineExpr.wrap("i")  # strings are not expressions

    def test_empty_name_rejected(self):
        with pytest.raises(IRError):
            AffineExpr({"": 1})


class TestAlgebra:
    def test_addition_merges_terms(self):
        e = var("i") + 2 * var("j") + var("i") + 3
        assert e.coeff("i") == 2
        assert e.coeff("j") == 2
        assert e.constant == 3

    def test_subtraction_and_negation(self):
        e = 3 * var("i") - var("j") - 1
        assert (-e).coeff("i") == -3
        assert (-e).constant == 1
        assert (e - e).is_constant

    def test_rsub(self):
        e = 10 - var("i")
        assert e.constant == 10
        assert e.coeff("i") == -1

    def test_scalar_multiplication(self):
        e = (var("i") + 2) * 4
        assert e.coeff("i") == 4
        assert e.constant == 8
        assert (2 * var("j")).coeff("j") == 2

    def test_product_of_variables_rejected(self):
        with pytest.raises(IRError):
            var("i") * var("j")

    def test_multiply_by_constant_expr(self):
        assert (var("i") * const(3)).coeff("i") == 3


class TestEvaluation:
    def test_scalar_evaluation(self):
        e = 2 * var("i") + var("j") - 1
        assert e.evaluate({"i": 10, "j": 5}) == 24

    def test_vector_evaluation_broadcasts(self):
        e = 8 * var("i") + var("j")
        got = e.evaluate({"i": np.arange(3).reshape(3, 1), "j": np.arange(2)})
        np.testing.assert_array_equal(got, [[0, 1], [8, 9], [16, 17]])

    def test_missing_variable_raises(self):
        with pytest.raises(IRError):
            var("i").evaluate({"j": 0})


class TestSubstitution:
    def test_rename(self):
        e = var("i") + 2 * var("j")
        r = e.rename({"i": "a"})
        assert r.coeff("a") == 1 and r.coeff("j") == 2

    def test_rename_collision_rejected(self):
        with pytest.raises(IRError):
            (var("i") + var("j")).rename({"i": "j"})


class TestEqualityHashRepr:
    def test_equality_with_ints(self):
        assert const(4) == 4
        assert const(4) != 5

    def test_hashable_and_stable(self):
        assert hash(var("i") + 1) == hash(1 + var("i"))
        assert len({var("i"), var("i"), const(0)}) == 2

    def test_repr_round_readability(self):
        assert repr(var("i") + 1) == "i + 1"
        assert repr(var("i") - var("j")) == "i - j"
        assert repr(const(0)) == "0"
