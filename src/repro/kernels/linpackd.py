"""LINPACKD: Gaussian elimination with pivoting, Table 1.

Right-looking LU factorization -- the classic triangular nest
``do k / do j = k+1, n / do i = k+1, n`` updating ``A(i,j) -= A(i,k) *
A(k,j)`` -- followed by back substitution.  The pivot search itself is a
scalar max-scan we model as a read sweep over the pivot column.  The
symbolic (k-dependent) bounds exercise the IR's triangular-nest path:
each value of ``k`` is one row of the trace generator, whose two inner
loops are one broadcast (or, for short rows, part of a batch).
"""

from __future__ import annotations

from repro.ir.builder import ProgramBuilder
from repro.ir.program import Program

__all__ = ["build"]

DEFAULT_N = 256


def build(n: int = DEFAULT_N) -> Program:
    """LU factorization: pivot scan, trailing update, forward solve."""
    b = ProgramBuilder(f"linpackd{n}")
    A = b.array("A", (n, n))
    Bv = b.array("B", (n,))
    i, j, k = b.vars("i", "j", "k")

    # Pivot search: scan column k below the diagonal.
    b.nest(
        [b.loop(k, 1, n - 1), b.loop(i, k, n)],
        [b.use(reads=[A[i, k]], flops=1, label="pivot-scan")],
        label="lu-pivot",
    )
    # Elimination update (rank-1 trailing submatrix update).
    b.nest(
        [b.loop(k, 1, n - 1), b.loop(j, k + 1, n), b.loop(i, k + 1, n)],
        [
            b.assign(
                A[i, j], reads=[A[i, j], A[i, k], A[k, j]],
                flops=2, label="eliminate",
            )
        ],
        label="lu-update",
    )
    # Forward solve of the right-hand side.
    b.nest(
        [b.loop(k, 1, n - 1), b.loop(i, k + 1, n)],
        [b.assign(Bv[i], reads=[Bv[i], A[i, k], Bv[k]], flops=2, label="fsolve")],
        label="lu-forward",
    )
    return b.build()
