"""Vectorized address-trace generation.

For a rectangular sub-nest every reference's byte address is affine in the
loop indices, so the entire sub-trace is one broadcast sum of per-loop
index vectors times per-reference coefficients -- no Python-level
per-iteration work.  Loops whose bounds depend on outer variables
(triangular nests) are iterated in Python until the remaining sub-nest is
rectangular.  A rectangular sub-nest larger than the chunk budget is
emitted in blocks of its outermost loop's values, each block one chunk of
at most :data:`DEFAULT_CHUNK_REFS` references: a fixed, cache-resident
budget, so the simulator's per-chunk intermediates never spill out of the
host's caches.  Reference interleaving follows statement order exactly:
the trace of a sub-space is an (iterations x refs) matrix raveled
row-major.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import IRError
from repro.ir.loops import LoopNest
from repro.ir.program import Program
from repro.layout.layout import DataLayout

__all__ = ["nest_trace_chunks", "program_trace_chunks", "generate_trace"]

#: References per trace chunk.  Small enough that a chunk and the
#: simulator's per-chunk intermediates stay resident in the host's L2
#: cache, large enough to amortize the per-chunk Python overhead; an
#: A/B of 32k-256k budgets on the full-size Figure 9 programs and the
#: fuzzed sweeps put the optimum here.
DEFAULT_CHUNK_REFS = 65_536


def _loop_values(lp, env: dict[str, int]) -> np.ndarray:
    """The values loop ``lp`` walks at concrete outer indices."""
    first, count = lp.concrete_trip(env)
    return first + lp.step * np.arange(count, dtype=np.int64)


def _offset_table(
    program: Program, layout: DataLayout, nest: LoopNest
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Absolute-address constant and per-loop coefficients of every
    reference, in trace order: ``addr[r] = const[r] + sum(coeffs[v][r] * v)``."""
    bases = layout.bases()
    exprs = []
    for ref in nest.refs:
        decl = program.decl(ref.array)
        exprs.append(ref.offset_expr(decl) + bases[ref.array])
    loop_vars = set(nest.loop_vars)
    for expr in exprs:
        for name in expr.variables:
            if name not in loop_vars:
                raise IRError(f"no value provided for variable {name!r} in {expr}")
    const = np.array([e.constant for e in exprs], dtype=np.int64)
    coeffs = {
        v: np.array([e.coeff(v) for e in exprs], dtype=np.int64)
        for v in nest.loop_vars
    }
    return const, coeffs


def _subspace_refs(nest: LoopNest, level: int, env: dict[str, int]) -> int:
    """Dynamic reference count of the sub-nest from ``level`` inward."""
    count = nest.refs_per_iteration
    for lp in nest.loops[level:]:
        count *= lp.concrete_trip(env)[1]
    return count


def _emit_subspace(
    table: tuple[np.ndarray, dict[str, np.ndarray]],
    nest: LoopNest,
    level: int,
    env: dict[str, int],
    outer: np.ndarray | None = None,
) -> np.ndarray:
    """Fully vectorized trace of the rectangular sub-nest from ``level``.

    ``outer`` restricts loop ``level`` to a block of its values.  The
    trace is the (iterations x refs) address array raveled row-major,
    built as one broadcast sum: per-reference constants plus each loop's
    index vector times its coefficient column, added innermost loop
    first so every intermediate but the last stays small.
    """
    const, coeffs = table
    acc = const.copy()
    for lp in nest.loops[:level]:
        acc += coeffs[lp.var] * env[lp.var]
    inner = nest.loops[level:]
    values = [_loop_values(lp, env) for lp in inner]
    if outer is not None:
        values[0] = outer
    shape = tuple(v.size for v in values) + (const.size,)
    if 0 in shape:
        return np.empty(0, dtype=np.int64)
    ndim = len(shape)
    for k in range(len(inner) - 1, -1, -1):
        coeff = coeffs[inner[k].var]
        if coeff.any():
            grid = values[k].reshape((-1,) + (1,) * (ndim - k - 1))
            acc = acc + grid * coeff
    if acc.shape != shape:
        acc = np.broadcast_to(acc, shape)
    return np.ascontiguousarray(acc).reshape(-1)


def _coalesce(pieces: Iterator[np.ndarray], max_chunk_refs: int) -> Iterator[np.ndarray]:
    """Concatenate consecutive small pieces into chunks of at most
    ``max_chunk_refs`` references (a larger piece passes through alone),
    so triangular nests and tiny nests do not pay per-chunk overhead
    for every row."""
    pending: list[np.ndarray] = []
    size = 0
    for piece in pieces:
        if size + piece.size > max_chunk_refs and pending:
            yield pending[0] if len(pending) == 1 else np.concatenate(pending)
            pending, size = [], 0
        if piece.size:
            pending.append(piece)
            size += piece.size
    if pending:
        yield pending[0] if len(pending) == 1 else np.concatenate(pending)


def _nest_pieces(
    program: Program,
    layout: DataLayout,
    nest: LoopNest,
    max_chunk_refs: int,
) -> Iterator[np.ndarray]:
    """The nest's trace in vectorized pieces, each within the budget
    whenever one iteration fits it."""
    if max_chunk_refs <= 0:
        raise IRError("max_chunk_refs must be positive")
    table = _offset_table(program, layout, nest)

    def walk(level: int, env: dict[str, int]) -> Iterator[np.ndarray]:
        if nest.concrete_from(level):
            size = _subspace_refs(nest, level, env)
            if size <= max_chunk_refs or level == nest.depth:
                yield _emit_subspace(table, nest, level, env)
                return
            values = _loop_values(nest.loops[level], env)
            block = max_chunk_refs // (size // values.size)
            if block:
                for start in range(0, values.size, block):
                    yield _emit_subspace(
                        table, nest, level, env, values[start:start + block]
                    )
                return
        lp = nest.loops[level]
        for value in _loop_values(lp, env).tolist():
            child = dict(env)
            child[lp.var] = value
            yield from walk(level + 1, child)

    # Top-level: bounds of loop 0 are necessarily constant (no outer vars).
    yield from walk(0, {})


def nest_trace_chunks(
    program: Program,
    layout: DataLayout,
    nest: LoopNest,
    max_chunk_refs: int = DEFAULT_CHUNK_REFS,
) -> Iterator[np.ndarray]:
    """Yield the nest's address trace as a sequence of int64 chunks.

    ``max_chunk_refs`` bounds the number of references per emitted chunk
    whenever one iteration fits it.  The generator descends into outer
    loops in Python until the remaining sub-nest is rectangular (given
    fixed outer indices); a rectangular sub-nest that exceeds the budget
    is emitted in blocks of as many of its outermost loop's values as
    fit, and only one whose single outer iteration is over budget is
    descended further.  Small pieces (rows of a triangular nest) are
    concatenated up to the budget.
    """
    return _coalesce(
        _nest_pieces(program, layout, nest, max_chunk_refs), max_chunk_refs
    )


def program_trace_chunks(
    program: Program,
    layout: DataLayout,
    max_chunk_refs: int = DEFAULT_CHUNK_REFS,
) -> Iterator[np.ndarray]:
    """Concatenated chunked trace of all nests in program order."""
    return _coalesce(
        (
            piece
            for nest in program.nests
            for piece in _nest_pieces(program, layout, nest, max_chunk_refs)
        ),
        max_chunk_refs,
    )


def generate_trace(
    program: Program,
    layout: DataLayout,
    max_chunk_refs: int = DEFAULT_CHUNK_REFS,
) -> np.ndarray:
    """Materialize the full program trace (use chunks for large programs)."""
    chunks = list(program_trace_chunks(program, layout, max_chunk_refs))
    if not chunks:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(chunks)
