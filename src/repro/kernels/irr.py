"""IRR500K: relaxation over an irregular mesh, Table 1.

The real program gathers node values through an edge list -- indirect
subscripts the affine IR cannot express, so this kernel carries a *custom
trace generator* (the registry's ``custom_trace`` hook): a synthetic
random-geometric mesh (fixed seed) produces the edge list, and each
relaxation sweep emits the gather/update access pattern against the
layout's actual base addresses, so padding still moves the trace exactly
as it would the real program.  See DESIGN.md, Substitutions.

The affine part (the node-array update sweep ``X(i) = X(i) + w * Y(i)``)
is ordinary IR, so PAD/GROUPPAD analyze and pad the arrays normally.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.ir.builder import ProgramBuilder
from repro.ir.program import Program
from repro.layout.layout import DataLayout

__all__ = ["build", "trace_chunks"]

DEFAULT_N = 500_000 // 8  # nodes such that node arrays total ~500 KB each
EDGE_FACTOR = 4
SEED = 19991113  # SC '99 conference date; fixed for reproducibility


def build(n: int = DEFAULT_N) -> Program:
    """Node arrays X, Y plus the int32 edge endpoint arrays EL, ER."""
    b = ProgramBuilder("irr500k" if n == DEFAULT_N else f"irr{n}")
    X = b.array("X", (n,))
    Y = b.array("Y", (n,))
    b.array("EL", (EDGE_FACTOR * n,), element_size=4)
    b.array("ER", (EDGE_FACTOR * n,), element_size=4)
    (i,) = b.vars("i")
    b.nest(
        [b.loop(i, 1, n)],
        [b.assign(X[i], reads=[X[i], Y[i]], flops=2, label="update")],
        label="irr-node-sweep",
    )
    return b.build()


def _edges(n_nodes: int, seed: int = SEED) -> np.ndarray:
    """Synthetic mesh edges: mostly local neighbours plus long-range links,
    the locality profile of a bandwidth-reduced irregular mesh."""
    rng = np.random.default_rng(seed)
    n_edges = EDGE_FACTOR * n_nodes
    src = rng.integers(0, n_nodes, size=n_edges, dtype=np.int64)
    local = rng.integers(1, 32, size=n_edges, dtype=np.int64)
    faraway = rng.integers(0, n_nodes, size=n_edges, dtype=np.int64)
    use_far = rng.random(n_edges) < 0.05
    dst = np.where(use_far, faraway, (src + local) % n_nodes)
    return np.stack([src, dst], axis=1)


def trace_chunks(
    program: Program,
    layout: DataLayout,
    sweeps: int = 2,
    seed: int = SEED,
) -> Iterator[np.ndarray]:
    """Gather sweeps over the edge list, then the affine node sweep.

    Per edge: read both endpoint indices (int32 edge arrays), gather both
    Y endpoint values, read-modify-write X at the source -- five
    references per edge, in that order.
    """
    n_nodes = program.decl("X").shape[0]
    edges = _edges(n_nodes, seed)
    bases = layout.bases()
    n_edges = edges.shape[0]
    for _ in range(sweeps):
        out = np.empty((n_edges, 5), dtype=np.int64)
        eidx = np.arange(n_edges, dtype=np.int64)
        out[:, 0] = bases["EL"] + 4 * eidx
        out[:, 1] = bases["ER"] + 4 * eidx
        out[:, 2] = bases["Y"] + 8 * edges[:, 0]
        out[:, 3] = bases["Y"] + 8 * edges[:, 1]
        out[:, 4] = bases["X"] + 8 * edges[:, 0]
        yield out.reshape(-1)
    from repro.trace.generator import program_trace_chunks

    yield from program_trace_chunks(program, layout)
