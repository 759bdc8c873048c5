"""Array references: an array name plus affine subscripts.

A reference like ``A(i, j+1)`` is ``ArrayRef("A", (var("i"), var("j")+1))``.
Given the owning :class:`~repro.ir.arrays.ArrayDecl`, a reference lowers to
a single affine expression for its byte offset from the array base
(:meth:`ArrayRef.offset_expr`) -- the reference definition that
:func:`repro.ir.lowering.lower` reads once per program into the integer
tables every address reader consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import IRError
from repro.ir.affine import AffineExpr
from repro.ir.arrays import ArrayDecl

__all__ = ["ArrayRef"]


@dataclass(frozen=True)
class ArrayRef:
    """One textual array reference.

    ``is_write`` records whether this operand is stored to; the cache model
    treats loads and stores identically (as the paper's simulations do) but
    semantic checks and the NumPy executor need the distinction.
    """

    array: str
    subscripts: tuple[AffineExpr, ...]
    is_write: bool = False

    def __post_init__(self) -> None:
        if not self.array:
            raise IRError("reference needs an array name")
        subs = tuple(AffineExpr.wrap(s) for s in self.subscripts)
        if not subs:
            raise IRError(f"reference to {self.array} needs at least one subscript")
        object.__setattr__(self, "subscripts", subs)

    @property
    def rank(self) -> int:
        return len(self.subscripts)

    @property
    def variables(self) -> tuple[str, ...]:
        """All loop variables appearing in any subscript (sorted, unique)."""
        seen: set[str] = set()
        for s in self.subscripts:
            seen.update(s.variables)
        return tuple(sorted(seen))

    def offset_expr(self, decl: ArrayDecl) -> AffineExpr:
        """Byte offset from the array base as an affine expression.

        Uses Fortran 1-based column-major addressing:
        ``sum_k (subscript_k - 1) * stride_k``.
        """
        if decl.name != self.array:
            raise IRError(f"declaration is for {decl.name!r}, reference is to {self.array!r}")
        if decl.rank != self.rank:
            raise IRError(
                f"array {self.array} has rank {decl.rank}, reference has {self.rank}"
            )
        off = AffineExpr()
        for sub, stride in zip(self.subscripts, decl.strides_bytes):
            off = off + (sub - 1) * stride
        return off

    def rename(self, mapping) -> "ArrayRef":
        return ArrayRef(
            self.array,
            tuple(s.rename(mapping) for s in self.subscripts),
            self.is_write,
        )

    def same_array(self, other: "ArrayRef") -> bool:
        return self.array == other.array

    def is_uniformly_generated_with(self, other: "ArrayRef") -> bool:
        """True when both refs address the same array with subscripts that
        differ only by constants (Gannon et al.'s *uniformly generated*
        references).  Group reuse is only tracked between such pairs."""
        if not self.same_array(other) or self.rank != other.rank:
            return False
        return all(
            (a - b).is_constant for a, b in zip(self.subscripts, other.subscripts)
        )

    def __repr__(self) -> str:
        subs = ",".join(repr(s) for s in self.subscripts)
        tag = "W" if self.is_write else "R"
        return f"{self.array}({subs})[{tag}]"
