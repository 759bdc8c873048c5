"""The paper's test programs (Table 1) as IR models.

Each kernel module exposes ``build(n=...) -> Program`` producing the
loop-nest IR of that program at a given problem size, with default sizes
matching Table 1's names (ADI32 -> 32, EXPL512 -> 512, ...).  The registry
(:mod:`repro.kernels.registry`) indexes them all with Table 1 metadata.

The eight scientific kernels are modeled directly from their well-known
sources (Livermore loops, LINPACK); the NAS and SPEC95 applications are
synthetic stand-ins that reproduce each program's *array-conflict
structure* -- see DESIGN.md, Substitutions, for why that is the property
the paper's experiments exercise.
"""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.kernels.registry": (
        "KERNELS", "Kernel", "get_kernel", "kernel_names",
    ),
})
