"""Loop-nest intermediate representation.

A tiny "mini-Fortran" IR sufficient to express the paper's programs:
column-major arrays, perfect loop nests with affine bounds, and statements
whose operands are array references with affine subscripts.  The IR is the
object that every transformation in :mod:`repro.transforms` rewrites, that
:mod:`repro.analysis` reasons about, and that :mod:`repro.trace` lowers to
address traces for the cache simulator.
"""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.ir.affine": ("AffineExpr", "var", "const"),
    "repro.ir.arrays": ("ArrayDecl",),
    "repro.ir.refs": ("ArrayRef",),
    "repro.ir.loops": ("Loop", "LoopNest", "Statement"),
    "repro.ir.program": ("Program",),
    "repro.ir.builder": ("ProgramBuilder",),
})
