"""Executable NumPy versions of the kernels, running on padded layouts.

The paper's timing experiments run real code whose arrays sit at the base
addresses the padding transformations chose.  We reproduce that by
allocating one flat float64 pool of the layout's total extent and handing
each kernel *views* into it at the padded offsets (column-major, as the
declarations say) -- so a padded layout changes real memory addresses, and
wall-clock timings respond to cache behaviour exactly as far as
CPython+NumPy lets them (see DESIGN.md, Substitutions: interpreter
overhead swamps most of the effect; the cycle model is the primary
series).

These implementations are also the semantic ground truth for
transformation tests: tiled matmul must equal NumPy's product,
transposed-layout runs must equal originals, and so on.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ReproError
from repro.ir.program import Program
from repro.layout.layout import DataLayout

__all__ = [
    "allocate_pool",
    "run_dot",
    "run_jacobi",
    "run_matmul_tiled",
]


def allocate_pool(
    program: Program, layout: DataLayout, fill: float | None = None
) -> dict[str, np.ndarray]:
    """One flat buffer with each array a Fortran-order view at its base.

    Requires every base address to be 8-byte aligned (true of all layouts
    produced by the padding transformations, whose pads are multiples of a
    cache line).  ``fill`` seeds every element; None leaves zeros.
    """
    total = layout.total_bytes
    if total % 8 != 0:
        total += 8 - total % 8
    pool = np.zeros(total // 8, dtype=np.float64)
    if fill is not None:
        pool[:] = fill
    views: dict[str, np.ndarray] = {}
    bases = layout.bases()
    for decl in program.arrays:
        base = bases[decl.name]
        if base % 8 != 0:
            raise ReproError(
                f"array {decl.name} base {base} is not 8-byte aligned; "
                f"numeric kernels need aligned layouts"
            )
        if decl.element_size != 8:
            # Integer arrays (IRR's edge lists) are not touched by the
            # float kernels; give them a float view of the right extent.
            count = -(-decl.size_bytes // 8)
        else:
            count = decl.num_elements
        flat = pool[base // 8 : base // 8 + count]
        if decl.element_size == 8:
            views[decl.name] = flat.reshape(decl.shape, order="F")
        else:
            views[decl.name] = flat
    return views


def run_dot(x: np.ndarray, z: np.ndarray, repeats: int = 1) -> float:
    """Livermore 3: q += Z(k) * X(k)."""
    q = 0.0
    for _ in range(repeats):
        q += float(np.dot(z, x))
    return q


def run_jacobi(a: np.ndarray, b: np.ndarray, steps: int = 1) -> float:
    """Five-point Jacobi sweep + copy-back; returns the final residual."""
    resid = 0.0
    for _ in range(steps):
        a[1:-1, 1:-1] = 0.25 * (
            b[:-2, 1:-1] + b[2:, 1:-1] + b[1:-1, :-2] + b[1:-1, 2:]
        )
        resid = float(np.abs(a[1:-1, 1:-1] - b[1:-1, 1:-1]).sum())
        b[1:-1, 1:-1] = a[1:-1, 1:-1]
    return resid


def run_matmul_tiled(
    a: np.ndarray, b: np.ndarray, c: np.ndarray, tile_w: int, tile_h: int
) -> None:
    """Figure 8 tiling: KK by W, II by H, then J / K / I."""
    n = a.shape[0]
    for kk in range(0, n, tile_w):
        k_hi = min(kk + tile_w, n)
        for ii in range(0, n, tile_h):
            i_hi = min(ii + tile_h, n)
            a_tile = a[ii:i_hi, kk:k_hi]
            for j in range(n):
                cj = c[ii:i_hi, j]
                bj = b[kk:k_hi, j]
                cj += a_tile @ bj

