"""Registry of all test programs with Table 1 metadata.

``KERNELS`` maps each program name to a :class:`Kernel` record carrying the
paper's description and line count (Table 1), the builder, the suite it
belongs to, whether our model is a faithful kernel or a structural
stand-in, and the optional custom trace hook (IRR's irregular gathers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from repro.errors import ReproError
from repro.ir.program import Program
from repro.kernels import adi, dot, erle, expl, irr, jacobi, linpackd, matmul, shal, timestep
from repro.kernels import standins as st
from repro.layout.layout import DataLayout

__all__ = ["Kernel", "KERNELS", "get_kernel"]


@dataclass(frozen=True)
class Kernel:
    """One Table 1 program."""

    name: str
    description: str
    table1_lines: int
    suite: str  # "kernels" | "nas" | "spec95" | "extra"
    build: Callable[..., Program]
    fidelity: str  # "model" (faithful kernel) | "standin" (structural)
    custom_trace: Optional[Callable] = None

    def program(self, n: int | None = None) -> Program:
        """Build the IR at problem size ``n`` (kernel default when None)."""
        return self.build() if n is None else self.build(n)

    def trace_chunks(
        self, program: Program, layout: DataLayout
    ) -> Iterator[np.ndarray]:
        """Address-trace chunks, honoring the custom hook when present."""
        if self.custom_trace is not None:
            return self.custom_trace(program, layout)
        from repro.trace.generator import program_trace_chunks

        return program_trace_chunks(program, layout)


KERNELS: dict[str, Kernel] = {
    k.name: k
    for k in [
        # -------- scientific kernels (Table 1, top block) --------
        Kernel("adi32", "2D ADI Integration Fragment (Liv8)", 63,
               "kernels", adi.build, "model"),
        Kernel("dot", "Vector Dot Product (Liv3)", 32,
               "kernels", dot.build, "model"),
        Kernel("erle64", "3D Tridiagonal Solver", 612,
               "kernels", erle.build, "model"),
        Kernel("expl", "2D Explicit Hydrodynamics (Liv18)", 59,
               "kernels", expl.build, "model"),
        Kernel("irr500k", "Relaxation over Irregular Mesh", 196,
               "kernels", irr.build, "model", custom_trace=irr.trace_chunks),
        Kernel("jacobi", "2D Jacobi with Convergence Test", 52,
               "kernels", jacobi.build, "model"),
        Kernel("linpackd", "Gaussian Elimination w/Pivoting", 795,
               "kernels", linpackd.build, "model"),
        Kernel("shal", "Shallow Water Model", 227,
               "kernels", shal.build, "model"),
        # -------- NAS benchmarks --------
        Kernel("appbt", "Block-Tridiagonal PDE Solver", 4441,
               "nas", st.build_appbt, "standin"),
        Kernel("applu", "Parabolic/Elliptic PDE Solver", 3417,
               "nas", st.build_applu, "standin"),
        Kernel("appsp", "Scalar-Pentadiagonal PDE Solver", 3991,
               "nas", st.build_appsp, "standin"),
        Kernel("buk", "Integer Bucket Sort", 305,
               "nas", st.build_buk, "standin"),
        Kernel("cgm", "Sparse Conjugate Gradient", 855,
               "nas", st.build_cgm, "standin"),
        Kernel("embar", "Monte Carlo", 265,
               "nas", st.build_embar, "standin"),
        Kernel("fftpde", "3D Fast Fourier Transform", 773,
               "nas", st.build_fftpde, "standin"),
        Kernel("mgrid", "Multigrid Solver", 680,
               "nas", st.build_mgrid, "standin"),
        # -------- SPEC95 benchmarks --------
        Kernel("apsi", "Pseudospectral Air Pollution", 7361,
               "spec95", st.build_apsi, "standin"),
        Kernel("fpppp", "2 Electron Integral Derivative", 2784,
               "spec95", st.build_fpppp, "standin"),
        Kernel("hydro2d", "Navier-Stokes", 4292,
               "spec95", st.build_hydro2d, "standin"),
        Kernel("su2cor", "Quantum Physics", 2332,
               "spec95", st.build_su2cor, "standin"),
        Kernel("swim", "Vector Shallow Water Model", 429,
               "spec95", st.build_swim, "standin"),
        Kernel("tomcatv", "Mesh Generation", 190,
               "spec95", st.build_tomcatv, "standin"),
        Kernel("turb3d", "Isotropic Turbulence", 2100,
               "spec95", st.build_turb3d, "standin"),
        Kernel("wave5", "Maxwell's Equations", 7764,
               "spec95", st.build_wave5, "standin"),
        # -------- additional workloads used by the figures --------
        Kernel("matmul", "Tiled Matrix Multiplication (Fig 8/13)", 0,
               "extra", matmul.build, "model"),
        Kernel("timestep", "Time-Iterated Stencil (Song & Li exception)", 0,
               "extra", timestep.build, "model"),
    ]
}


def get_kernel(name: str) -> Kernel:
    """Look up a registered kernel by name (raises ReproError if unknown)."""
    try:
        return KERNELS[name]
    except KeyError:
        raise ReproError(
            f"unknown kernel {name!r}; available: {', '.join(sorted(KERNELS))}"
        ) from None
