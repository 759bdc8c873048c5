"""Vectorized address-trace generation.

Every reference's byte address is affine in the loop indices: the
program's one lowered form (:func:`repro.ir.lowering.lower`) holds a
constant and one coefficient per loop for every reference, a layout adds
its base vector, and a trace is a broadcast sum of loop index vectors
times coefficient columns, with no Python-level per-iteration work.
Reference interleaving follows statement order exactly: a trace is an
(iterations x refs) address matrix raveled row-major.

A nest is traced row by row (:meth:`~repro.ir.loops.LoopNest.rows`): a
row is one combination of values of the loops whose bounds others depend
on -- the outer loop of a triangular nest, the tile loops of a tiled one
-- and within a row the remaining loops are rectangular.  NumPy
enumerates every row and its reference count at once.  A row of at
least ``max_chunk_refs // 16`` references is emitted on its own as one
broadcast, in blocks of at most :data:`DEFAULT_CHUNK_REFS` references
when it is larger: a fixed, cache-resident budget, so the simulator's
per-chunk intermediates never spill out of the host's caches.
Consecutive smaller rows are packed into batches within the budget, and
each batch is one ragged expansion over the loops whose bounds vary by
row plus a broadcast over the constant-bound loops inside them.  A
rectangular nest is a single row.

A chunk made of whole runs of the innermost loop, all of one length, is
a :class:`~repro.cache.config.SegmentedTrace` tagged with that
``(iterations, refs)`` shape, which lets the simulator drop L1 hits that
cannot change cache state: broadcasts with inner loops, blocks inside
one innermost run, and coalesced chunks whose pieces share one shape.
Ragged batches and mixed coalesced chunks are plain arrays.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.cache.config import SegmentedTrace
from repro.errors import IRError
from repro.ir.loops import LoopNest, ragged_range
from repro.ir.lowering import lower
from repro.ir.program import Program
from repro.layout.layout import DataLayout

__all__ = ["nest_trace_chunks", "program_trace_chunks", "generate_trace"]

#: References per trace chunk.  Small enough that a chunk and the
#: simulator's per-chunk intermediates stay resident in the host's L2
#: cache, large enough to amortize the per-chunk Python overhead; an
#: A/B of 32k-256k budgets on the full-size Figure 9 programs and the
#: fuzzed sweeps put the optimum here.
DEFAULT_CHUNK_REFS = 65_536

#: A row of at least ``max_chunk_refs // BIG_ROW_DIVISOR`` references is
#: emitted on its own; smaller rows are packed into batches.
BIG_ROW_DIVISOR = 16


def _broadcast(
    acc: np.ndarray, coeff: np.ndarray, values: list[np.ndarray]
) -> np.ndarray:
    """Addresses of ``acc.shape[0]`` points times the rectangular inner
    loops with index vectors ``values`` and coefficient rows ``coeff``.

    ``acc`` holds each point's per-reference address before the inner
    loops.  The result is the (points x n_1 x ... x n_m x refs) array
    raveled row-major, built innermost loop first so every intermediate
    but the last stays small: segments of ``n_m`` iterations x ``refs``
    references, tagged as such when there are inner loops.
    """
    points, nrefs = acc.shape
    shape = (points,) + tuple(v.size for v in values) + (nrefs,)
    if 0 in shape:
        return np.empty(0, dtype=np.int64)
    ndim = len(shape)
    out = acc[0] if points == 1 else None
    for k in range(len(values) - 1, -1, -1):
        if coeff[k].any():
            term = values[k].reshape((-1,) + (1,) * (ndim - k - 2)) * coeff[k]
            out = term if out is None else out + term
    if points > 1:
        lead = acc.reshape((points,) + (1,) * len(values) + (nrefs,))
        out = lead if out is None else lead + out
    if out.shape != shape:
        out = np.broadcast_to(out, shape)
    out = np.ascontiguousarray(out).reshape(-1)
    return SegmentedTrace.tag(out, values[-1].size, nrefs) if values else out


def _row_blocks(
    base: np.ndarray,
    coeff: np.ndarray,
    firsts: list[int],
    counts: list[int],
    steps: list[int],
    max_chunk_refs: int,
) -> Iterator[np.ndarray]:
    """One row's trace in blocks within the budget whenever one iteration
    fits it.

    ``base`` is the row's per-reference address before its loops; the
    loops run ``firsts[k] + steps[k]*j`` for ``j < counts[k]``.  The
    outermost loops are flattened into one index space, as few as leave
    a single flat index within the budget, and each block is a slice of
    that space broadcast against the remaining loops.  A block without
    inner loops is one segment when it lies inside one run of the
    innermost loop.
    """
    per_index = base.size
    split = len(counts)
    while split and per_index * counts[split - 1] <= max_chunk_refs:
        split -= 1
        per_index *= counts[split]
    inner = [
        f + s * np.arange(c, dtype=np.int64)
        for f, c, s in zip(firsts[split:], counts[split:], steps[split:])
    ]
    flat = int(np.prod(counts[:split]))
    block = max(1, max_chunk_refs // per_index)
    for start in range(0, flat, block):
        stop = min(flat, start + block)
        index = np.arange(start, stop, dtype=np.int64)
        acc = base[None, :]
        for k in range(split - 1, -1, -1):
            index, j = np.divmod(index, counts[k])
            acc = acc + (firsts[k] + steps[k] * j)[:, None] * coeff[k]
        out = _broadcast(acc, coeff[split:], inner)
        if not inner and split and start % counts[-1] + stop - start <= counts[-1]:
            out = SegmentedTrace.tag(out, stop - start, base.size)
        yield out


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
    lowered = lower(program)
    low = lowered.nest(nest)
    # Absolute address of reference r in trace order:
    # const[r] + sum_l coeff[l, r] * v_l.
    const = (lowered.bases(layout)[low.array] + low.const)[low.index]
    coeff = low.coeff[:, low.index]
    rows = nest.rows()
    p = rows.level
    steps = [lp.step for lp in nest.loops[p:]]
    sizes = rows.iterations * const.size
    if not sizes.size:
        return
    # Loops q.. have constant bounds: the same index vectors in every row.
    q = nest.depth
    while q > p and nest.loops[q - 1].is_rectangular:
        q -= 1
    suffix = [
        rows.firsts[k][0] + steps[k] * np.arange(rows.counts[k][0], dtype=np.int64)
        for k in range(q - p, nest.depth - p)
    ]
    cum = np.concatenate(([0], np.cumsum(sizes)))
    big = np.flatnonzero(sizes >= max(1, max_chunk_refs // BIG_ROW_DIVISOR))
    bounds = np.append(big, sizes.size)

    def row_base(a: int, b: int) -> np.ndarray:
        acc = const[None, :]
        for l, values in enumerate(rows.values):
            acc = acc + values[a:b, None] * coeff[l]
        return acc

    def batch(a: int, b: int) -> np.ndarray:
        acc = row_base(a, b)
        row = np.arange(b - a)
        for k in range(q - p):
            parent, values = ragged_range(
                rows.firsts[k][a:b][row], rows.counts[k][a:b][row], steps[k]
            )
            row = row[parent]
            acc = acc[parent]
            acc += values[:, None] * coeff[p + k]
        return _broadcast(acc, coeff[q:], suffix)

    start = 0
    for stop in bounds.tolist():
        # Rows start..stop-1 are small: pack them into batches.
        while start < stop:
            end = int(np.searchsorted(cum, cum[start] + max_chunk_refs, "right")) - 1
            end = min(stop, end)
            if cum[end] > cum[start]:
                yield batch(start, end)
            start = end
        if stop < sizes.size:
            yield from _row_blocks(
                row_base(stop, stop + 1)[0],
                coeff[p:],
                [int(f[stop]) for f in rows.firsts],
                [int(c[stop]) for c in rows.counts],
                steps,
                max_chunk_refs,
            )
            start = stop + 1


def _join(pieces: list[np.ndarray]) -> np.ndarray:
    """The pieces as one chunk, keeping a segment shape they all share."""
    if len(pieces) == 1:
        return pieces[0]
    out = np.concatenate(pieces)
    (segment, *others) = {getattr(p, "segment", None) for p in pieces}
    return out if others or segment is None else SegmentedTrace.tag(out, *segment)


def _coalesce(pieces: Iterator[np.ndarray], max_chunk_refs: int) -> Iterator[np.ndarray]:
    """Concatenate consecutive small pieces into chunks of at most
    ``max_chunk_refs`` references (a larger piece passes through alone),
    so tiny nests and the pieces around a big row do not pay per-chunk
    overhead each."""
    pending: list[np.ndarray] = []
    size = 0
    for piece in pieces:
        if size + piece.size > max_chunk_refs and pending:
            yield _join(pending)
            pending, size = [], 0
        if piece.size:
            pending.append(piece)
            size += piece.size
    if pending:
        yield _join(pending)


def nest_trace_chunks(
    program: Program,
    layout: DataLayout,
    nest: LoopNest,
    max_chunk_refs: int = DEFAULT_CHUNK_REFS,
) -> Iterator[np.ndarray]:
    """Yield the nest's address trace as a sequence of int64 chunks.

    ``max_chunk_refs`` bounds the number of references per emitted chunk
    whenever one iteration fits it.  The nest's rows (see the module
    docstring) are enumerated with NumPy; a big row is emitted alone, in
    blocks of its outermost loops' values when it exceeds the budget,
    and runs of small rows are packed into batches of at most the
    budget.  Small pieces are then concatenated up to the budget.
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
