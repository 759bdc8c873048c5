"""Affine expressions over loop index variables.

Every subscript and loop bound in the IR is an :class:`AffineExpr`:
``c0 + c1*i + c2*j + ...`` with integer coefficients.  Affine expressions
support exact evaluation (scalar or vectorized over NumPy index grids) and
substitution, which is how transformations such as strip-mining and fusion
rewrite subscripts without symbolic algebra packages.
"""

from __future__ import annotations

from typing import Mapping, Union

import numpy as np

from repro.errors import IRError

__all__ = ["AffineExpr", "var", "const"]

ExprLike = Union["AffineExpr", int]


class AffineExpr:
    """Immutable integer-affine expression ``const + sum(coeff[v] * v)``."""

    __slots__ = ("_terms", "_const", "_hash")

    def __init__(self, terms: Mapping[str, int] | None = None, constant: int = 0):
        clean = {}
        for name, coeff in (terms or {}).items():
            if not isinstance(name, str) or not name:
                raise IRError(f"variable names must be non-empty strings, got {name!r}")
            coeff = int(coeff)
            if coeff != 0:
                clean[name] = coeff
        self._terms: tuple[tuple[str, int], ...] = tuple(sorted(clean.items()))
        self._const = int(constant)
        self._hash = hash((self._terms, self._const))

    # -- construction -----------------------------------------------------
    @staticmethod
    def wrap(value: ExprLike) -> "AffineExpr":
        """Coerce an int into a constant expression (AffineExprs pass through)."""
        if isinstance(value, AffineExpr):
            return value
        if isinstance(value, (int, np.integer)):
            return AffineExpr(constant=int(value))
        raise IRError(f"cannot interpret {value!r} as an affine expression")

    # -- inspection -------------------------------------------------------
    @property
    def constant(self) -> int:
        return self._const

    @property
    def terms(self) -> dict[str, int]:
        """Variable -> coefficient mapping (zero coefficients omitted)."""
        return dict(self._terms)

    @property
    def sorted_terms(self) -> tuple[tuple[str, int], ...]:
        """``(variable, coefficient)`` pairs sorted by variable name."""
        return self._terms

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self._terms)

    def coeff(self, name: str) -> int:
        """Coefficient of variable ``name`` (0 if absent)."""
        for n, c in self._terms:
            if n == name:
                return c
        return 0

    @property
    def is_constant(self) -> bool:
        return not self._terms

    def depends_on(self, name: str) -> bool:
        return self.coeff(name) != 0

    # -- algebra ----------------------------------------------------------
    def __add__(self, other: ExprLike) -> "AffineExpr":
        other = AffineExpr.wrap(other)
        terms = dict(self._terms)
        for n, c in other._terms:
            terms[n] = terms.get(n, 0) + c
        return AffineExpr(terms, self._const + other._const)

    __radd__ = __add__

    def __neg__(self) -> "AffineExpr":
        return AffineExpr({n: -c for n, c in self._terms}, -self._const)

    def __sub__(self, other: ExprLike) -> "AffineExpr":
        return self + (-AffineExpr.wrap(other))

    def __rsub__(self, other: ExprLike) -> "AffineExpr":
        return AffineExpr.wrap(other) + (-self)

    def __mul__(self, k: int) -> "AffineExpr":
        if isinstance(k, AffineExpr):
            if k.is_constant:
                k = k.constant
            else:
                raise IRError("product of two non-constant affine expressions")
        k = int(k)
        return AffineExpr({n: c * k for n, c in self._terms}, self._const * k)

    __rmul__ = __mul__

    # -- evaluation / substitution ---------------------------------------
    def evaluate(self, env: Mapping[str, Union[int, np.ndarray]]):
        """Evaluate given values (ints or broadcastable arrays) for all variables.

        Raises :class:`IRError` if a variable is missing from ``env``.
        """
        result: Union[int, np.ndarray] = self._const
        for name, coeff in self._terms:
            if name not in env:
                raise IRError(f"no value provided for variable {name!r} in {self}")
            result = result + coeff * env[name]
        return result

    def rename(self, mapping: Mapping[str, str]) -> "AffineExpr":
        """Rename variables, e.g. ``{"i": "ii"}``.  Renames must not collide."""
        terms: dict[str, int] = {}
        for n, c in self._terms:
            new = mapping.get(n, n)
            if new in terms:
                raise IRError(f"rename collision on {new!r} in {self}")
            terms[new] = c
        return AffineExpr(terms, self._const)

    # -- dunder plumbing ---------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, np.integer)):
            other = AffineExpr.wrap(int(other))
        if not isinstance(other, AffineExpr):
            return NotImplemented
        return self._terms == other._terms and self._const == other._const

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        parts = []
        for n, c in self._terms:
            if c == 1:
                parts.append(n)
            elif c == -1:
                parts.append(f"-{n}")
            else:
                parts.append(f"{c}*{n}")
        if self._const or not parts:
            parts.append(str(self._const))
        out = " + ".join(parts)
        return out.replace("+ -", "- ")


def var(name: str) -> AffineExpr:
    """The affine expression consisting of a single variable."""
    return AffineExpr({name: 1})


def const(value: int) -> AffineExpr:
    """A constant affine expression."""
    return AffineExpr(constant=value)
