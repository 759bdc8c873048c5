"""Vectorized trace generation.

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
least ``max_chunk_refs // 16`` references is emitted on its own, in
blocks of at most :data:`DEFAULT_CHUNK_REFS` references when it is
larger: a fixed, cache-resident budget, so the simulator's per-chunk
intermediates never spill out of the host's caches.  Consecutive smaller
rows are packed into batches within the budget, each one ragged
expansion over the loops whose bounds vary by row.  A rectangular nest
is a single row.

Every piece is a run of *segments*: consecutive iterations of the
innermost loop inside one row, over which reference ``r`` moves by a
constant stride, ``start[r] + stride[r] * i``.  A piece is built as its
segment starts only (one address per reference and segment), and then
either expanded into int64 addresses (:func:`program_trace_chunks`, what
the sequential oracle and :func:`generate_trace` read) or cut for one
hierarchy (:func:`program_line_chunks`): the
:class:`~repro.cache.config.LineChunk` of the accesses its L1 must
classify, as line numbers, without ever building an address L1 drops.

L1 drops access ``(i, r)``, ``i >= 1``, of a segment when it touches the
line ``(i-1, r)`` touched and no other reference can map to the same L1
set with another line in between: the byte delta between two references
is affine, so its extremes over the segment (or over the segment's whole
row) bound it, and its interval in lines must leave out every nonzero
multiple of the L1 set count.  The access is then a hit on its set's MRU
line at any associativity and changes no LRU state.  Which iterations
change a reference's line follows from its start address modulo the L1
line and its stride, so the segments of a piece that share those phases
share one *template* of kept ``(i, r)`` pairs, and their lines are one
gather plus an add.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

import numpy as np

from repro.cache.assoc_vec import line_numbers, narrow_lines
from repro.cache.config import (
    HierarchyConfig,
    LineChunk,
    check_trace,
    line_geometry,
)
from repro.errors import IRError, SimulationError
from repro.ir.loops import LoopNest, ragged_range
from repro.ir.lowering import lower
from repro.ir.program import Program
from repro.layout.layout import DataLayout

__all__ = [
    "nest_trace_chunks",
    "program_trace_chunks",
    "program_line_chunks",
    "generate_trace",
]

#: References per trace chunk.  Small enough that a chunk and the
#: simulator's per-chunk intermediates stay resident in the host's L2
#: cache, large enough to amortize the per-chunk Python overhead; an
#: A/B of 32k-256k budgets on the full-size Figure 9 programs and the
#: fuzzed sweeps put the optimum here.
DEFAULT_CHUNK_REFS = 65_536

#: A row of at least ``max_chunk_refs // BIG_ROW_DIVISOR`` references is
#: emitted on its own; smaller rows are packed into batches.
BIG_ROW_DIVISOR = 16

#: A piece of fewer than ``max_chunk_refs // CUT_DIVISOR`` references
#: keeps every access: finding a piece's drops costs a fixed ~0.1-1 ms
#: of NumPy calls, more than the levels save on a small piece.  On the
#: repository benchmark's fuzzed population at the default budget,
#: cutting pieces from 4k references on cost more time than the dropped
#: accesses saved; from 16k on it saved more.
CUT_DIVISOR = 4

#: Segments of at least this many iterations per reference test their
#: own endpoint deltas where their row's test proves too little: the
#: test costs ``refs**2`` per segment, a quarter of a segment's worth.
SEGMENT_TEST_RATIO = 4

_INT32_MAX = np.iinfo(np.int32).max


class _Segments(NamedTuple):
    """A piece of a nest's trace as runs of its innermost loop.

    ``starts[s, r]`` is reference ``r``'s address at segment ``s``'s
    first iteration; segment ``s`` runs ``n[s]`` iterations (``n`` is an
    int when every segment runs the same number) and lies in nest row
    ``rows[s]`` (an int: all in one row).
    """

    starts: np.ndarray
    n: int | np.ndarray
    rows: int | np.ndarray

    def refs(self) -> int:
        m, nrefs = self.starts.shape
        n = self.n
        return (m * n if isinstance(n, int) else int(n.sum())) * nrefs


class _Nest:
    """One nest's lowered tables, rows and innermost strides."""

    def __init__(self, program: Program, layout: DataLayout, nest: LoopNest):
        lowered = lower(program)
        low = lowered.nest(nest)
        # Absolute address of reference r in trace order:
        # const[r] + sum_l coeff[l, r] * v_l.
        self.const = (lowered.bases(layout)[low.array] + low.const)[low.index]
        self.coeff = low.coeff[:, low.index]
        self.rows = nest.rows()
        self.iterations = self.rows.iterations
        self.loops = nest.loops
        self.depth = nest.depth
        self.steps = [lp.step for lp in nest.loops[self.rows.level:]]
        self.stride = self.coeff[-1] * nest.loops[-1].step
        # The L1 pair test of each big row (see _LineCutter), by row.
        self.row_conflicts: dict[int, np.ndarray] = {}

    def row_bounds(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(lo, hi)`` of ``A[c] - A[r]`` over each of ``rows``, shaped
        ``[row, c, r]``: each row's loops are rectangular, so every term
        of the affine delta takes its extremes at the loop ends."""
        const, coeff, info = self.const, self.coeff, self.rows
        p = info.level
        lo = np.tile(const[:, None] - const[None, :], (rows.size, 1, 1))
        for l, values in enumerate(info.values):
            lo += (coeff[l][:, None] - coeff[l][None, :]) * values[rows][:, None, None]
        hi = lo.copy()
        for k, step in enumerate(self.steps):
            delta = coeff[p + k][:, None] - coeff[p + k][None, :]
            first = info.firsts[k][rows][:, None, None]
            a = delta * first
            b = delta * (first + step * (info.counts[k][rows][:, None, None] - 1))
            lo += np.minimum(a, b)
            hi += np.maximum(a, b)
        return lo, hi


def _segments(acc: np.ndarray, coeff: np.ndarray, values: list[np.ndarray], rows) -> _Segments:
    """The segments of ``acc.shape[0]`` points times the rectangular inner
    loops with index vectors ``values`` (at least one) and coefficient
    rows ``coeff``.

    ``acc`` holds each point's per-reference address before the inner
    loops; the segments are the points times every loop but the
    innermost, row-major, so the trace is the (points x n_1 x ... x n_m
    x refs) address array.  ``rows`` is each point's row (or one row).
    """
    points, nrefs = acc.shape
    ndim = len(values) + 1
    out = acc.reshape((points,) + (1,) * (ndim - 2) + (nrefs,))
    out = out + values[-1][0] * coeff[-1] if values[-1].size else out
    for k in range(len(values) - 1):
        if coeff[k].any():
            out = out + values[k].reshape((-1,) + (1,) * (ndim - k - 2)) * coeff[k]
    shape = (points,) + tuple(v.size for v in values[:-1]) + (nrefs,)
    if out.shape != shape:
        out = np.broadcast_to(out, shape)
    starts = np.ascontiguousarray(out).reshape(-1, nrefs)
    if not isinstance(rows, int):
        rows = np.repeat(rows, starts.shape[0] // max(1, points))
    return _Segments(starts, int(values[-1].size), rows)


def _row_blocks(
    base: np.ndarray,
    coeff: np.ndarray,
    firsts: list[int],
    counts: list[int],
    steps: list[int],
    max_chunk_refs: int,
    row: int,
) -> Iterator[_Segments]:
    """One row's trace in blocks within the budget whenever one iteration
    fits it.

    ``base`` is the row's per-reference address before its loops; the
    loops run ``firsts[k] + steps[k]*j`` for ``j < counts[k]``.  The
    outermost loops are flattened into one index space, as few as leave
    a single flat index within the budget, and each block is a slice of
    that space broadcast against the remaining loops.  A block without
    inner loops is a slice of the innermost loop's runs: at most two
    segments, since the budget is below one run.
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
    run = counts[-1]
    for start in range(0, flat, block):
        stop = min(flat, start + block)
        if inner:
            index = np.arange(start, stop, dtype=np.int64)
        else:
            # Segments from the block's first index and every run start.
            index = np.arange(start - start % run, stop, run, dtype=np.int64)
            index[0] = start
            n = np.diff(index, append=stop)
        acc = base[None, :]
        for k in range(split - 1, -1, -1):
            index, j = np.divmod(index, counts[k])
            acc = acc + (firsts[k] + steps[k] * j)[:, None] * coeff[k]
        if inner:
            yield _segments(acc, coeff[split:], inner, row)
        else:
            yield _Segments(np.ascontiguousarray(acc), n, row)


def _nest_pieces(nest: _Nest, max_chunk_refs: int) -> Iterator[_Segments]:
    """The nest's trace in vectorized pieces, each within the budget
    whenever one iteration fits it."""
    if max_chunk_refs <= 0:
        raise IRError("max_chunk_refs must be positive")
    const, coeff, rows = nest.const, nest.coeff, nest.rows
    p = rows.level
    steps = nest.steps
    sizes = nest.iterations * const.size
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

    def batch(a: int, b: int) -> _Segments:
        acc = row_base(a, b)
        row = np.arange(b - a)
        # With no constant-bound loops the innermost loop is ragged too:
        # each point of the loops above it starts one segment.
        last = q - p if suffix else q - p - 1
        for k in range(last):
            parent, values = ragged_range(
                rows.firsts[k][a:b][row], rows.counts[k][a:b][row], steps[k]
            )
            row = row[parent]
            acc = acc[parent]
            acc += values[:, None] * coeff[p + k]
        if suffix:
            return _segments(acc, coeff[q:], suffix, row + a)
        k = q - p - 1
        acc = acc + rows.firsts[k][a:b][row][:, None] * coeff[-1]
        return _Segments(acc, rows.counts[k][a:b][row], row + a)

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
                stop,
            )
            start = stop + 1


def _addresses(seg: _Segments, stride: np.ndarray) -> np.ndarray:
    """The segments' int64 addresses in trace order."""
    starts, n = seg.starts, seg.n
    if isinstance(n, int):
        m, nrefs = starts.shape
        # Each segment's row is filled with the offsets first: a copy
        # along whole rows, faster than one broadcast add whose inner
        # loop runs over the few references.
        out = np.empty((m, n * nrefs), dtype=np.int64)
        out[:] = (np.arange(n, dtype=np.int64)[:, None] * stride).reshape(-1)
        out.reshape(m, n, nrefs)[...] += starts[:, None, :]
        return out.reshape(-1)
    parent, i = ragged_range(np.zeros(n.size, dtype=np.int64), n, 1)
    out = starts[parent]
    out += i[:, None] * stride
    return out.reshape(-1)


def _conflicts(lo: np.ndarray, hi: np.ndarray, line: int, span: int) -> np.ndarray:
    """Whether reference ``c``, whose delta ``A[c] - A[r]`` lies in
    ``[lo, hi]``, can map to reference ``r``'s L1 set with another line.

    A nonzero multiple ``k * sets`` in ``[floor(lo/L), ceil(hi/L)]`` is a
    multiple ``k*C`` of the span ``C = sets * L`` with ``lo - L < k*C <
    hi + L``, i.e. ``-ka <= k <= kb`` for these ``ka`` and ``kb``.
    ``lo`` and ``hi`` are overwritten.
    """
    ka = line_numbers(np.subtract(line - 1, lo, out=lo), span, out=lo)
    kb = line_numbers(np.add(hi, line - 1, out=hi), span, out=hi)
    nonzero = np.bitwise_or(ka, kb) != 0
    return (np.add(ka, kb, out=ka) >= 0) & nonzero


class _LineCutter:
    """Cuts a hierarchy's :class:`~repro.cache.config.LineChunk` from
    segments: L1's kept accesses as line numbers in the hierarchy's unit.

    Keeps the templates it builds -- per nest strides and phase pattern,
    the kept ``(i, r)`` pairs of a segment and their line offsets -- so
    the segments of every later piece with that pattern are one gather.
    """

    def __init__(self, hierarchy: HierarchyConfig, max_chunk_refs: int):
        self.geometry = unit, line, sets = line_geometry(hierarchy)
        self.unit, self.line, self.span = unit, line, sets * line
        self.min_refs = max_chunk_refs // CUT_DIVISOR
        self._templates: dict[tuple, tuple] = {}

    def _droppable(self, nest: _Nest, seg: _Segments) -> np.ndarray:
        """``[s, r]``: reference ``r`` may drop repeats of its line in
        segment ``s``: it moves less than an L1 line per iteration, and
        no other reference can take its L1 set with another line within
        the segment.

        The test reads each pair's delta extremes over the segment's
        row, once per row and for rows of at least twice as many
        iterations as references, where it costs at most half the row's
        worth of work (a rectangular nest is one row).  Segments of at
        least :data:`SEGMENT_TEST_RATIO` iterations per reference test
        their own endpoints for the pairs their row leaves unproven.
        """
        starts, n, stride = seg.starts, seg.n, nest.stride
        m, nrefs = starts.shape
        moving = np.abs(stride) < self.line
        if not isinstance(seg.rows, int):
            first = int(seg.rows[0])
            conflict = self._row_conflicts(nest, np.arange(first, int(seg.rows[-1]) + 1))
            return ~conflict.any(axis=1)[seg.rows - first] & moving
        conflict = nest.row_conflicts.get(seg.rows)
        if conflict is None:
            conflict = self._row_conflicts(nest, np.array([seg.rows]))[0]
            nest.row_conflicts[seg.rows] = conflict
        if not (isinstance(n, int) and n >= SEGMENT_TEST_RATIO * nrefs):
            return np.repeat((~conflict.any(axis=0) & moving)[None, :], m, axis=0)
        # The pairs (c, r) the row leaves unproven, by r.
        r, c = np.nonzero(conflict.T & moving[:, None])
        safe = np.repeat(moving[None, :], m, axis=0)
        if r.size:
            spread = (stride[c] - stride[r]) * (n - 1)
            delta = starts[:, c] - starts[:, r]
            lo = delta + np.minimum(spread, 0)
            hi = np.add(delta, np.maximum(spread, 0), out=delta)
            bad = _conflicts(lo, hi, self.line, self.span)
            heads = np.flatnonzero(np.diff(r, prepend=-1))
            safe[:, r[heads]] &= ~np.logical_or.reduceat(bad, heads, axis=1)
        return safe

    def _row_conflicts(self, nest: _Nest, ids: np.ndarray) -> np.ndarray:
        """``[row, c, r]`` over rows ``ids``: the pair test over each
        row, where it pays; a row too short to test conflicts
        everywhere off the diagonal."""
        nrefs = nest.const.size
        tested = nest.iterations[ids] >= 2 * nrefs
        conflict = np.broadcast_to(~np.eye(nrefs, dtype=bool), (ids.size, nrefs, nrefs))
        if not tested.all():
            conflict = conflict.copy()
            if tested.any():
                conflict[tested] = _conflicts(*nest.row_bounds(ids[tested]),
                                              self.line, self.span)
            return conflict
        return _conflicts(*nest.row_bounds(ids), self.line, self.span)

    def _template(self, key: np.ndarray, stride: np.ndarray, n: int) -> tuple:
        """The kept pairs of an ``n``-iteration segment with phase key
        ``key[r] = 2 * phase + droppable``, in trace order:
        ``(i, r, flat index i*refs + r, line offset)``.

        The pairs of a shorter segment are a prefix, so the template of
        the longest segment seen so far serves every length.
        """
        tkey = (key.tobytes(), stride.tobytes())
        built = self._templates.get(tkey)
        if built is not None and built[0] >= n:
            return built[1]
        x = (key >> 1) + np.arange(n, dtype=np.int64)[:, None] * stride
        lines = x // self.line
        keep = np.empty(x.shape, dtype=bool)
        keep[0] = True
        np.not_equal(lines[1:], lines[:-1], out=keep[1:])
        keep |= (key & 1) == 0
        flat = np.flatnonzero(keep)
        i, r = np.divmod(flat, key.size)
        offset = x.reshape(-1)[flat] // self.unit
        if offset.size and np.abs(offset).max() < _INT32_MAX:
            offset = offset.astype(np.int32)
        template = (i, r, flat, offset)
        self._templates[tkey] = (n, template)
        return template

    def cut(self, nest: _Nest, seg: _Segments) -> LineChunk:
        starts, n, stride = seg.starts, seg.n, nest.stride
        refs = seg.refs()
        if refs < self.min_refs or (isinstance(n, int) and n < 2):
            return self._plain(seg, stride, refs)
        if not isinstance(n, int) and (n == 0).any():
            run = n > 0
            rows = seg.rows if isinstance(seg.rows, int) else seg.rows[run]
            seg = _Segments(starts[run], n[run], rows)
            starts, n = seg.starts, seg.n
        m, nrefs = starts.shape
        droppable = self._droppable(nest, seg)
        if not droppable.any():
            return self._plain(seg, stride, refs)
        last = n - 1 if isinstance(n, int) else (n - 1)[:, None]
        ends = starts + stride * last
        low = min(int(starts.min()), int(ends.min()))
        if low < 0:
            raise SimulationError("trace contains negative addresses")
        # Phase of each (segment, reference): the start address modulo
        # what decides its template -- the L1 line where it may drop
        # accesses, the unit where its line offsets depend on it.
        line, unit = self.line, self.unit
        phase = np.where(
            droppable & (stride != 0),
            _mod(starts, line),
            np.where(stride % unit != 0, _mod(starts, unit), 0),
        )
        key = phase * 2 + droppable
        patterns, which = _patterns(key)
        top = int(np.maximum(starts, ends).max()) // unit
        base = line_numbers(starts - phase, unit)
        if top < _INT32_MAX:
            base = base.astype(np.int32)
        longest = n if isinstance(n, int) else int(n.max())
        templates = [self._template(key[s], stride, longest) for s in patterns.tolist()]
        lines = _gather(templates, which, n, base, _OFFSET)
        if refs == lines.size:
            return LineChunk(lines, refs, self.geometry)
        seg_start = _segment_starts(n, m) * nrefs
        return LineChunk(
            lines, refs, self.geometry,
            lambda: _gather(
                templates, which, n, np.broadcast_to(seg_start[:, None], (m, nrefs)),
                _FLAT,
            ),
        )

    def _plain(self, seg: _Segments, stride: np.ndarray, refs: int) -> LineChunk:
        """Every access kept."""
        lines = narrow_lines(check_trace(_addresses(seg, stride)), self.unit)
        return LineChunk(lines, refs, self.geometry)


def _patterns(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of ``key``, a piece's phase patterns: the first
    segment of each, and each segment's pattern number."""
    m = key.shape[0]
    if (key == key[0]).all():
        # One pattern, as for 88% of the references the Figure 9
        # programs cut: skipping the sort saves ~0.03 s of their
        # ~0.28 s of cutting on an x86_64 2-CPU host.
        return np.zeros(1, dtype=np.intp), np.zeros(m, dtype=np.intp)
    order = np.lexsort(key.T)
    ordered = key[order]
    new = np.empty(m, dtype=bool)
    new[0] = True
    np.any(ordered[1:] != ordered[:-1], axis=1, out=new[1:])
    which = np.empty(m, dtype=np.intp)
    which[order] = np.cumsum(new) - 1
    return order[new], which


def _mod(x: np.ndarray, m: int) -> np.ndarray:
    """``x % m``, as a mask when ``m`` is a power of two."""
    return x & (m - 1) if m & (m - 1) == 0 else x % m


def _segment_starts(n: int | np.ndarray, m: int) -> np.ndarray:
    """Index of each segment's first iteration among the piece's."""
    if isinstance(n, int):
        return np.arange(m, dtype=np.int64) * n
    return np.cumsum(n) - n


# Template fields _gather adds to a segment's base: the flat index of a
# pair within the segment (positions) or its line offset (lines).
_FLAT, _OFFSET = 2, 3


def _gather(templates: list, which: np.ndarray, n, base: np.ndarray, field: int) -> np.ndarray:
    """Each segment's template entries, in trace order: ``base[s, r] +
    template[field]`` over the pairs ``(i, r)`` with ``i < n[s]``.

    ``templates`` holds each phase pattern's template and ``which`` each
    segment's pattern.  The segments of one pattern are one gather, and
    one more gather puts the patterns' parts back in trace order.
    """
    if len(templates) == 1:
        return _one_pattern(templates[0], n, base, field)[0]
    m = which.size
    order = np.argsort(which, kind="stable")
    counts = np.empty(m, dtype=np.int64)
    parts = []
    bounds = (np.flatnonzero(np.diff(which[order])) + 1).tolist()
    for a, b in zip([0] + bounds, bounds + [m]):
        segs = order[a:b]
        values, counts[segs] = _one_pattern(
            templates[which[segs[0]]], n if isinstance(n, int) else n[segs],
            base[segs], field,
        )
        parts.append(values)
    start = np.empty(m, dtype=np.int64)
    start[order] = np.cumsum(counts[order]) - counts[order]
    return np.concatenate(parts)[ragged_range(start, counts, 1)[1]]


def _one_pattern(template: tuple, n, base: np.ndarray, field: int) -> tuple:
    """``_gather`` for segments of one pattern, and how many pairs each
    segment keeps."""
    i, r, value = template[0], template[1], template[field]
    if not isinstance(n, int):
        kept = np.searchsorted(i, n)
        parent, j = ragged_range(np.zeros(kept.size, dtype=np.int64), kept, 1)
        return base[parent, r[j]] + value[j], kept
    t = int(np.searchsorted(i, n))
    out = np.take(base, r[:t], axis=1)
    out += value[:t]
    return out.reshape(-1), t


def _join(pieces: list) -> np.ndarray | LineChunk:
    """The pieces as one chunk."""
    if isinstance(pieces[0], LineChunk):
        return LineChunk.join(pieces)
    return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)


def _coalesce(pieces: Iterator, max_chunk_refs: int) -> Iterator:
    """Concatenate consecutive small pieces into chunks of at most
    ``max_chunk_refs`` references (a larger piece passes through alone),
    so tiny nests and the pieces around a big row do not pay per-chunk
    overhead each."""
    pending: list = []
    size = 0
    for piece in pieces:
        refs = len(piece)
        if size + refs > max_chunk_refs and pending:
            yield _join(pending)
            pending, size = [], 0
        if refs:
            pending.append(piece)
            size += refs
    if pending:
        yield _join(pending)


def _address_pieces(program, layout, nests, max_chunk_refs) -> Iterator[np.ndarray]:
    for loop_nest in nests:
        nest = _Nest(program, layout, loop_nest)
        for seg in _nest_pieces(nest, max_chunk_refs):
            yield _addresses(seg, nest.stride)


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
        _address_pieces(program, layout, [nest], max_chunk_refs), max_chunk_refs
    )


def program_trace_chunks(
    program: Program,
    layout: DataLayout,
    max_chunk_refs: int = DEFAULT_CHUNK_REFS,
) -> Iterator[np.ndarray]:
    """Concatenated chunked trace of all nests in program order."""
    return _coalesce(
        _address_pieces(program, layout, program.nests, max_chunk_refs),
        max_chunk_refs,
    )


def program_line_chunks(
    program: Program,
    layout: DataLayout,
    hierarchy: HierarchyConfig,
    max_chunk_refs: int = DEFAULT_CHUNK_REFS,
    nests: tuple[LoopNest, ...] | None = None,
) -> Iterator[LineChunk]:
    """The trace of ``nests`` (all of the program's by default) as the
    line chunks ``hierarchy`` simulates: the same chunk boundaries as
    :func:`program_trace_chunks`, each chunk holding the line numbers of
    the accesses its L1 must classify (see the module docstring)."""
    cutter = _LineCutter(hierarchy, max_chunk_refs)

    def pieces() -> Iterator[LineChunk]:
        for loop_nest in program.nests if nests is None else nests:
            nest = _Nest(program, layout, loop_nest)
            for seg in _nest_pieces(nest, max_chunk_refs):
                yield cutter.cut(nest, seg)

    return _coalesce(pieces(), max_chunk_refs)


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
