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
enumerates every row and its reference count at once.  The trace is
built in *pieces* within a budget of references: a row of at least a
sixteenth of the budget is emitted on its own, in blocks of equal size
within the budget when it is larger (so that no block is too small to
cut), and consecutive smaller rows are packed into batches within the
budget, each one ragged expansion over the loops whose bounds vary by
row.  A rectangular nest is a single row.

Every piece is a run of *segments*: consecutive iterations of the
innermost loop inside one row, over which reference ``r`` moves by a
constant stride, ``start[r] + stride[r] * i``.  A piece is built as its
segment starts only (one address per reference and segment), and then
either expanded into int64 addresses or cut for one hierarchy:

- :func:`program_trace_chunks`, what the sequential oracle and
  :func:`generate_trace` read, builds pieces within the chunk budget
  (:data:`~repro.cache.config.DEFAULT_CHUNK_REFS` references) and
  emits address chunks within it: a fixed, cache-resident size, so a
  consumer's per-chunk intermediates stay in the host's caches.
- :func:`program_line_chunks` builds pieces of :data:`PIECE_CHUNKS`
  times the budget, so a cut's fixed work is paid once per larger
  piece.  It emits :class:`~repro.cache.config.LineChunk` s of at
  most the budget's count of *kept lines*: the accesses its L1 must
  classify, as line numbers, without ever building an address L1
  drops.  A chunk is a run of whole segments, a segment of more than
  the budget's references being cut into runs first.  A line chunk
  therefore stands for more references than an address chunk, and the
  two streams' chunk boundaries differ; the levels' per-chunk arrays,
  which hold kept lines, stay within the budget.

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

from repro.cache.assoc_vec import line_numbers
from repro.cache.config import DEFAULT_CHUNK_REFS, HierarchyConfig, LineChunk, line_geometry
from repro.errors import IRError, SimulationError
from repro.ir.loops import LoopNest, ragged_range
from repro.ir.lowering import lower
from repro.ir.program import Program
from repro.layout.layout import DataLayout

__all__ = [
    "program_trace_chunks",
    "program_line_chunks",
    "generate_trace",
]

#: Line chunks are cut from pieces of ``PIECE_CHUNKS`` times the chunk
#: budget in references.  A cut pays a fixed ~0.1-1 ms of NumPy calls
#: per piece; on the same 12 jobs and host (best of 4), generating and
#: cutting the line chunks took 0.179 s of CPU time in 64Ki-reference
#: pieces and 0.113 s in 256Ki ones, and the level feeds 0.44 s in both.
PIECE_CHUNKS = 4

#: A row of at least a piece budget's ``1 / BIG_ROW_DIVISOR`` references
#: is emitted on its own; smaller rows are packed into batches.
BIG_ROW_DIVISOR = 16

#: A piece of fewer than ``max_chunk_refs // CUT_DIVISOR`` references
#: keeps every access: finding a piece's drops costs a fixed ~0.1-1 ms
#: of NumPy calls, more than the levels save on a small piece.  On the
#: repository benchmark's fuzzed population at the default budget,
#: cutting pieces from 4k references on cost more time than the dropped
#: accesses saved; from 16k on it saved more.  The floor follows the
#: chunk budget, not the larger piece size.
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

    def take(self, which) -> "_Segments":
        """The segments ``which`` selects (a slice or a mask)."""
        n, rows = self.n, self.rows
        return _Segments(
            self.starts[which],
            n if isinstance(n, int) else n[which],
            rows if isinstance(rows, int) else rows[which],
        )

    def capped(self, cap: int, stride: np.ndarray) -> tuple["_Segments", np.ndarray]:
        """The segments as runs of at most ``cap`` iterations, and the
        segment each run lies in."""
        n = np.broadcast_to(self.n, self.starts.shape[:1])
        parent, skip = ragged_range(np.zeros(n.size, dtype=np.int64), -(-n // cap), cap)
        rows = self.rows if isinstance(self.rows, int) else self.rows[parent]
        starts = self.starts[parent] + skip[:, None] * stride
        return _Segments(starts, np.minimum(n[parent] - skip, cap), rows), parent

    def offsets(self) -> np.ndarray:
        """Each segment's first reference's index among the piece's,
        and the piece's reference count last."""
        m, nrefs = self.starts.shape
        n = self.n
        if isinstance(n, int):
            return np.arange(m + 1, dtype=np.int64) * (n * nrefs)
        return np.concatenate(([0], np.cumsum(n))) * nrefs


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
    """One row's trace in blocks of equal size within the budget
    whenever one iteration fits it, so that no block is too small to cut.

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
    block = -(-flat // -(-flat // block))
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


def _run_addresses(start: np.ndarray, stride: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """References ``lo..hi-1`` of the segment that starts at ``start``,
    as int64 addresses."""
    i, r = np.divmod(np.arange(lo, hi, dtype=np.int64), start.size)
    return start[r] + stride[r] * i


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
        self.hierarchy = hierarchy
        self.geometry = unit, line, sets = line_geometry(hierarchy)
        self.unit, self.line, self.span = unit, line, sets * line
        self.budget = max_chunk_refs
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

    def cut(self, nest: _Nest, seg: _Segments) -> Iterator[LineChunk]:
        """The piece's line chunks, each of at most the budget's kept
        lines.  A piece too small to pay for its cut, or whose segments
        could not drop an access within the budget, keeps every access."""
        n, stride = seg.n, nest.stride
        nrefs = stride.size
        if (seg.refs() < self.min_refs or (isinstance(n, int) and n < 2)
                or 2 * nrefs > self.budget):
            return self._plain(seg, stride)
        if not isinstance(n, int) and (n == 0).any():
            seg = seg.take(n > 0)
        droppable = self._droppable(nest, seg)
        if not droppable.any():
            return self._plain(seg, stride)
        cap = self.budget // nrefs
        if (seg.n if isinstance(seg.n, int) else int(seg.n.max())) > cap:
            # Runs of at most the budget's references: each keeps at most
            # the budget's lines, and no template spans more.  The drop
            # test over the whole segment holds for each of its runs.
            seg, parent = seg.capped(cap, stride)
            droppable = droppable[parent]
        starts, n = seg.starts, seg.n
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
        return self._chunks(templates, which, n, base, seg.offsets())

    def _chunks(self, templates: list, which: np.ndarray, n, base: np.ndarray,
                first: np.ndarray) -> Iterator[LineChunk]:
        """Line chunks of runs of whole segments, each keeping at most
        the budget's lines; ``first`` holds each segment's first
        reference's index and the piece's reference count."""
        kept = _kept(templates, which, n)
        for a, b in _runs(kept, self.budget):
            yield self._chunk(templates, which[a:b], n if isinstance(n, int) else n[a:b],
                              base[a:b], first[a:b + 1] - first[a])

    def _chunk(self, templates: list, which: np.ndarray, n, base: np.ndarray,
               first: np.ndarray) -> LineChunk:
        """The line chunk of whole segments whose first references are
        ``first[:-1]`` of ``first[-1]``."""
        lines = _gather(templates, which, n, base, _OFFSET)
        refs = int(first[-1])
        if refs == lines.size:
            return LineChunk(lines, refs, self.geometry)
        starts = np.broadcast_to(first[:-1, None], base.shape)
        return LineChunk(
            lines, refs, self.geometry,
            lambda: _gather(templates, which, n, starts, _FLAT),
        )

    def _plain(self, seg: _Segments, stride: np.ndarray) -> Iterator[LineChunk]:
        """Every access kept, in chunks within the budget: runs of whole
        segments, and a longer segment sliced."""
        if seg.refs() <= self.budget:
            yield LineChunk.from_addresses(_addresses(seg, stride), self.hierarchy)
            return
        sizes = np.diff(seg.offsets())
        for a, b in _runs(sizes, self.budget):
            size = int(sizes[a])
            if size <= self.budget:
                yield LineChunk.from_addresses(
                    _addresses(seg.take(slice(a, b)), stride), self.hierarchy
                )
                continue
            for lo in range(0, size, self.budget):
                yield LineChunk.from_addresses(
                    _run_addresses(seg.starts[a], stride, lo, min(lo + self.budget, size)),
                    self.hierarchy,
                )


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


def _runs(sizes: np.ndarray, budget: int) -> Iterator[tuple[int, int]]:
    """Greedy runs ``[a, b)`` of consecutive segments whose ``sizes``
    sum to at most ``budget``; a segment larger than the budget is a run
    alone."""
    total = np.cumsum(sizes)
    a = 0
    while a < sizes.size:
        b = max(a + 1, int(np.searchsorted(total, total[a] - sizes[a] + budget, "right")))
        yield a, b
        a = b


def _kept(templates: list, which: np.ndarray, n) -> np.ndarray:
    """How many pairs each segment keeps: its pattern's template pairs
    with ``i < n[s]``."""
    if isinstance(n, int):
        return np.array([np.searchsorted(t[0], n) for t in templates])[which]
    if len(templates) == 1:
        return np.searchsorted(templates[0][0], n)
    kept = np.empty(n.size, dtype=np.intp)
    order = np.argsort(which, kind="stable")
    bounds = np.searchsorted(which[order], np.arange(len(templates) + 1)).tolist()
    for t, a, b in zip(templates, bounds, bounds[1:]):
        segs = order[a:b]
        kept[segs] = np.searchsorted(t[0], n[segs])
    return kept


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
    ``max_chunk_refs`` references, or kept lines of line chunks (a
    larger piece passes through alone), so tiny nests and the pieces
    around a big row do not pay per-chunk overhead each."""
    pending: list = []
    size = 0
    for piece in pieces:
        refs = len(piece)
        lines = piece.lines.size if isinstance(piece, LineChunk) else refs
        if size + lines > max_chunk_refs and pending:
            # Dropped before the yield, so the joined chunk's parts are
            # not held while the consumer works on it.
            chunk, pending, size = _join(pending), [], 0
            yield chunk
        if refs:
            pending.append(piece)
            size += lines
    if pending:
        yield _join(pending)


def program_trace_chunks(
    program: Program,
    layout: DataLayout,
    max_chunk_refs: int = DEFAULT_CHUNK_REFS,
) -> Iterator[np.ndarray]:
    """Yield the program's address trace, nest after nest in program
    order, as a sequence of int64 chunks.

    ``max_chunk_refs`` bounds the number of references per emitted chunk
    whenever one iteration fits it.  Each nest's rows (see the module
    docstring) are enumerated with NumPy; a big row is emitted alone, in
    blocks of its outermost loops' values when it exceeds the budget,
    and runs of small rows are packed into batches of at most the
    budget.  Small pieces are then concatenated up to the budget.
    """

    def pieces() -> Iterator[np.ndarray]:
        for loop_nest in program.nests:
            nest = _Nest(program, layout, loop_nest)
            for seg in _nest_pieces(nest, max_chunk_refs):
                yield _addresses(seg, nest.stride)

    return _coalesce(pieces(), max_chunk_refs)


def program_line_chunks(
    program: Program,
    layout: DataLayout,
    hierarchy: HierarchyConfig,
    max_chunk_refs: int = DEFAULT_CHUNK_REFS,
) -> Iterator[LineChunk]:
    """The program's trace as the line chunks ``hierarchy`` simulates,
    each holding the line numbers of at most ``max_chunk_refs`` accesses
    its L1 must classify, cut from pieces of :data:`PIECE_CHUNKS` times
    as many references (see the module docstring)."""
    cutter = _LineCutter(hierarchy, max_chunk_refs)

    def pieces() -> Iterator[LineChunk]:
        for loop_nest in program.nests:
            nest = _Nest(program, layout, loop_nest)
            for seg in _nest_pieces(nest, PIECE_CHUNKS * max_chunk_refs):
                yield from cutter.cut(nest, seg)

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
