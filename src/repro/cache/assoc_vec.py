"""Vectorized set-associative LRU cache simulation.

The sequential reference model (:mod:`repro.cache.assoc`) replays the
trace one access at a time in Python, which makes k-way sweeps ~100x
slower than the direct-mapped simulator and blocks full-size Table 1
experiments on associative hierarchies.  This module classifies the same
accesses with NumPy segment operations instead:

1. **Adjacent-repeat collapse.**  An access to the line accessed
   immediately before it is a guaranteed LRU hit at any associativity and
   leaves the stack unchanged, so consecutive same-line accesses collapse
   before any sorting (skipped when the trace has too few of them to pay
   for the compaction).
2. **Set decomposition by packed-key sort.**  Each access is packed into
   one integer ``(set << idx_bits) | position``; because positions make
   the keys unique, an ordinary quicksort of the packed keys *is* the
   stable grouping by set (the decomposition
   :class:`~repro.cache.streaming.StreamingDirectCache` shares), in
   32-bit keys whenever the chunk is small enough.  A second collapse
   then removes same-line repeats that are adjacent within a set, so
   consecutive surviving *events* of a set always name different lines.
3. **Carried state as virtual events.**  The persistent LRU stack of
   each set (a ``(num_sets, k)`` line matrix, most-recently-used first)
   is replayed as up to ``k`` virtual events prepended to the set's run,
   oldest first.  In-chunk classification is then stateless, and chunked
   simulation is byte-identical to one-shot simulation.
4. **Way-recurrence classification.**  Consecutive-distinct events make
   the LRU stack a closed-form function of the event sequence: the stack
   an event sees always has ``way1 = el[t-1]`` and ``way2 = el[t-2]``
   (a 2-way hit is literally ``el[t] == el[t-2]``), and each deeper way
   follows a sample-and-hold recurrence -- way ``w`` takes the value of
   way ``w-1`` whenever the event missed ways ``1..w-1``, and holds
   otherwise -- which one ``np.maximum.accumulate`` over the sample
   positions plus a gather evaluates for a whole chunk at once.  The
   cost is ``O(k * events)`` with no Python-level per-access or
   per-round loop, for any associativity and any trace shape.

The sequential model remains the ground-truth oracle; the property suite
asserts exact miss-mask agreement on randomized traces, geometries, and
chunkings (``tests/properties/test_property_assoc_vec.py``).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.cache.config import check_geometry, check_trace

__all__ = ["StreamingAssocCache", "miss_mask_assoc_vec", "LineStream"]

# Line numbers below this run the simulators' pipelines in int32: half
# the memory traffic, and a chunk's intermediates stay cache-resident.
_INT32_MAX = np.iinfo(np.int32).max


class LineStream(NamedTuple):
    """A checked trace chunk as line numbers in units of ``unit`` bytes.

    What a hierarchy hands its levels instead of byte addresses:
    ``lines`` holds each access's address floor-divided by ``unit``,
    which divides every level's line size, so a level's own line number
    is one more floor division.  ``hits`` counts accesses the hierarchy
    already knows hit without changing cache state (dropped before the
    level saw them); the level counts them as accesses that hit.  A
    level fed a stream with ``mask`` False (a hierarchy's last level)
    returns None instead of its miss mask.
    """

    lines: np.ndarray
    unit: int
    hits: int = 0
    mask: bool = True


def packed_group_sort(values: np.ndarray, value_bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Stable grouping of ``values`` via one sort of packed unique keys.

    Returns ``(grouped_values, positions)``: the equivalent of a stable
    argsort by value, recovered from ``np.sort`` of ``(value << idx_bits)
    | index``.  Unique keys make the unstable sort deterministic, and the
    packed keys drop to 32 bits whenever ``value_bits + idx_bits <= 31``,
    several times faster than a stable argsort (or a narrow-dtype one).
    Both the direct-mapped and the k-way simulators group by set here.
    """
    m = values.size
    idx_bits = max(1, (m - 1).bit_length())
    if value_bits + idx_bits <= 31:
        dtype = np.int32
    elif value_bits + idx_bits <= 62:
        dtype = np.int64
    else:  # pragma: no cover - needs >2^40 sets; fallback for safety
        order = np.argsort(values, kind="stable")
        return values[order], order
    key = np.left_shift(values, idx_bits, dtype=dtype)
    key |= np.arange(m, dtype=dtype)
    key.sort()
    # Index-typed positions: numpy would otherwise convert them on every
    # gather and scatter that uses them.
    positions = np.bitwise_and(
        key, (1 << idx_bits) - 1, out=np.empty(m, dtype=np.intp), casting="unsafe"
    )
    key >>= dtype(idx_bits)
    return key, positions


def line_numbers(addresses: np.ndarray, line_size: int, out=None) -> np.ndarray:
    """``addresses // line_size``, as a shift when ``line_size`` is a
    power of two; ``out`` may narrow the dtype."""
    if (line_size & (line_size - 1)) == 0:
        shift = line_size.bit_length() - 1
        return np.right_shift(addresses, shift, out=out, casting="unsafe")
    return np.floor_divide(addresses, line_size, out=out, casting="unsafe")


def narrow_lines(addresses: np.ndarray, unit: int) -> np.ndarray:
    """``addresses // unit`` in int32 whenever every result fits."""
    top = int(addresses.max()) if addresses.size else 0
    if top <= _INT32_MAX:
        # Narrowing first halves the bytes the division reads.
        lines = addresses.astype(np.int32)
        return line_numbers(lines, unit, out=lines)
    dtype = np.int32 if top // unit < _INT32_MAX else np.int64
    return line_numbers(addresses, unit, out=np.empty(addresses.size, dtype))


def chunk_lines(chunk, line_size: int) -> tuple[np.ndarray, int, bool]:
    """A level's line numbers of a chunk, the known hits it carries and
    whether its miss mask is wanted.

    ``chunk`` is a :class:`LineStream` or an array of byte addresses
    (checked here).
    """
    if isinstance(chunk, LineStream):
        factor = line_size // chunk.unit
        lines = chunk.lines if factor == 1 else line_numbers(chunk.lines, factor)
        return lines, chunk.hits, chunk.mask
    return narrow_lines(check_trace(chunk), line_size), 0, True


def set_index(lines: np.ndarray, num_sets: int) -> np.ndarray:
    """``lines % num_sets``, as a mask when ``num_sets`` is a power of two."""
    if (num_sets & (num_sets - 1)) == 0:
        return lines & (num_sets - 1)
    return lines % num_sets


def _shift_one(values: np.ndarray, first: np.ndarray) -> np.ndarray:
    """``values`` shifted down by one position, -1 at run starts."""
    out = np.empty_like(values)
    out[0] = -1
    out[1:] = values[:-1]
    out[first] = -1
    return out


def _run_last(rid: np.ndarray) -> np.ndarray:
    """Indices of the last element of each run id (``rid`` non-decreasing)."""
    tail = np.empty(rid.size, dtype=bool)
    tail[-1] = True
    np.not_equal(rid[1:], rid[:-1], out=tail[:-1])
    return np.nonzero(tail)[0]


def _classify_events(
    el: np.ndarray,
    ep: np.ndarray,
    efirst: np.ndarray,
    num_runs: int,
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Positions (``ep`` values) of missing events + final per-run stacks.

    ``el`` holds each set's events contiguously (runs delimited by
    ``efirst``), consecutive events of a run always naming different
    lines.  Under that invariant the LRU stack is a closed-form function
    of the event sequence, peeled one way per level over a shrinking
    domain:

    * The way-1 line an event sees is simply the previous event of its
      run (any event becomes the new top).
    * Way ``w`` only changes when an event misses ways ``1..w-1`` -- so
      restricted to the domain ``D_w`` of such events, the way-``w``
      value each event sees is the way-``w-1`` value seen by the
      *previous domain event* of the run (that event pushed it down).
      One shift per level, no per-access work.
    * An event that matches its way-``w`` value is a hit and drops out;
      survivors of level ``k`` are exactly the misses.

    Each level therefore compares ``el == shift(way_{w-1})`` on the
    events still unclassified and compresses; for realistic traces the
    domains shrink geometrically (most events hit in the first ways), so
    the cost beyond 2-way is a few extra passes over the *miss* stream
    only.  The way-``w-1`` value at a run's last domain event is way
    ``w`` of the set's final stack, so carried state falls out of the
    same peeling.
    """
    nE = el.size
    stack = np.full((num_runs, k), -1, dtype=np.int64)
    # Ways 1 and 2 live on the full domain, where every run is present in
    # order: run boundaries come straight from ``efirst`` and the final
    # stack columns are plain gathers at each run's last event.
    rs = np.nonzero(efirst)[0]
    lastpos = np.empty(num_runs, dtype=np.int64)
    lastpos[:-1] = rs[1:] - 1
    lastpos[-1] = nE - 1
    B1 = _shift_one(el, efirst)
    stack[:, 0] = el[lastpos]
    if k == 1:
        # Consecutive events of a run always differ: every event misses.
        return ep, stack
    B2 = _shift_one(B1, efirst)
    stack[:, 1] = B1[lastpos]
    alive = el != B2
    if k == 2:
        return ep[alive], stack

    # Deeper ways on shrinking domains; runs can drop out entirely, so
    # track run ids and scatter the per-run stack columns.
    if not alive.any():
        return ep[alive], stack
    rid = np.cumsum(efirst, dtype=np.int32)
    rid -= 1
    cel = el[alive]
    cep = ep[alive]
    crid = rid[alive]
    cB = B2[alive]
    cfirst = np.empty(crid.size, dtype=bool)
    cfirst[0] = True
    np.not_equal(crid[1:], crid[:-1], out=cfirst[1:])
    for w in range(3, k + 1):
        Bw = _shift_one(cB, cfirst)
        lastpos = _run_last(crid)
        stack[crid[lastpos], w - 1] = cB[lastpos]
        alive = cel != Bw
        if w == k or not alive.any():
            # Survivors of the last level are the misses; an empty domain
            # earlier means the deeper ways were never filled (-1 stands).
            cep = cep[alive]
            break
        cel = cel[alive]
        cep = cep[alive]
        crid = crid[alive]
        cB = Bw[alive]
        cfirst = np.empty(crid.size, dtype=bool)
        cfirst[0] = True
        np.not_equal(crid[1:], crid[:-1], out=cfirst[1:])
    return cep, stack


class StreamingAssocCache:
    """k-way LRU cache with persistent state and a fully vectorized ``feed``.

    The carried state is ``stack``, a ``(num_sets, associativity)``
    int64 matrix of line numbers ordered most-recently-used first
    (``-1`` marks an empty way).  ``feed`` classifies one chunk and
    updates the stack so that any chunking of a trace produces exactly
    the miss mask of the concatenated trace -- byte-identical to the
    :class:`~repro.cache.assoc.SequentialAssocCache` oracle.
    """

    def __init__(self, size: int, line_size: int, associativity: int):
        self.num_sets = check_geometry(size, line_size, associativity)
        self.size = size
        self.line_size = line_size
        self.associativity = associativity
        self.stack = np.full((self.num_sets, associativity), -1, dtype=np.int64)
        self.accesses = 0
        self.misses = 0

    def _preamble(self, present: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Virtual (sets, lines) replaying the stacks of ``present`` sets.

        Within a set the lines come oldest (LRU) first, so replaying them
        before the chunk's real events reconstructs the stack exactly.
        """
        stacks = self.stack[present]  # (P, k), MRU first
        lru_first = stacks[:, ::-1].ravel()
        sets = np.repeat(present, self.associativity)
        valid = lru_first >= 0
        return sets[valid], lru_first[valid]

    def feed(self, addresses) -> np.ndarray | None:
        """Classify one chunk; returns its miss mask and updates the stack.

        ``addresses`` is a byte-address array or a :class:`LineStream`.
        """
        lines, hits, mask = chunk_lines(addresses, self.line_size)
        self.accesses += hits
        return self._classify(lines, mask)

    def _classify(self, lines: np.ndarray, mask: bool) -> np.ndarray | None:
        """``feed`` on a chunk's line numbers: the miss mask (if ``mask``),
        stack and counters."""
        n = lines.size
        if n == 0:
            return np.zeros(0, dtype=bool) if mask else None
        k = self.associativity
        nsets = self.num_sets
        # The narrow pipeline must also hold the carried stack's lines.
        if lines.dtype != np.int64 and int(self.stack.max()) >= _INT32_MAX:
            lines = lines.astype(np.int64)
        dtype = lines.dtype

        # 1. Adjacent same-line repeats are hits at any associativity and
        # are also caught by the in-set collapse below, so compact here
        # only when it shrinks the sort meaningfully.
        keep = np.empty(n, dtype=bool)
        keep[0] = True
        np.not_equal(lines[1:], lines[:-1], out=keep[1:])
        if np.count_nonzero(keep) <= (n - (n >> 2)):
            surv_idx = np.nonzero(keep)[0]
            slines = lines[surv_idx]
        else:
            surv_idx = None
            slines = lines
        ssets = set_index(slines, nsets)

        # 2. Prepend the carried stacks of the sets this chunk touches.
        # A cold cache (every way-0 slot empty) has nothing to replay, so
        # ``present`` can wait until the grouping sort hands it over for
        # free -- bincount on a large chunk is a measurable cost.
        if bool((self.stack[:, 0] >= 0).any()):
            present = np.nonzero(np.bincount(ssets, minlength=nsets))[0]
            pre_sets, pre_lines = self._preamble(present)
        else:
            present = None
            pre_sets = pre_lines = np.empty(0, dtype=np.int64)
        npre = pre_sets.size
        if npre:
            # Cast the (tiny) virtual arrays so the concatenation keeps
            # the narrow pipeline dtype.
            ext_sets = np.concatenate([pre_sets.astype(dtype), ssets])
            ext_lines = np.concatenate([pre_lines.astype(dtype), slines])
        else:
            ext_sets = ssets
            ext_lines = slines

        # 3. Group by set, program order inside each run (virtual first).
        ss, pos = packed_group_sort(ext_sets, max(1, (nsets - 1).bit_length()))
        ls = np.take(ext_lines, pos, mode="wrap")

        m = ls.size
        first = np.empty(m, dtype=bool)
        first[0] = True
        np.not_equal(ss[1:], ss[:-1], out=first[1:])
        dup = np.zeros(m, dtype=bool)
        np.equal(ls[1:], ls[:-1], out=dup[1:])
        dup &= ~first
        # Same-set same-line repeats are MRU hits; the rest are events.
        if dup.any():
            evt = ~dup
            el = ls[evt]
            ep = pos[evt]
            efirst = first[evt]
        else:
            el, ep, efirst = ls, pos, first

        # Event runs are contiguous after the grouping sort, in ascending
        # set order -- so run i belongs to present[i] (every present set
        # contributes at least one event: its first survivor, or its
        # preamble).
        if present is None:
            present = ss[np.nonzero(first)[0]]

        mp, stacks = _classify_events(el, ep, efirst, present.size, k)
        self.stack[present] = stacks

        # 4. Scatter real (non-preamble) misses to original positions.
        if npre:
            mp = mp[mp >= npre] - npre
        self.accesses += n
        self.misses += int(mp.size)
        if not mask:
            return None
        miss = np.zeros(n, dtype=bool)
        miss[mp if surv_idx is None else surv_idx[mp]] = True
        return miss


def miss_mask_assoc_vec(
    addresses: np.ndarray,
    size: int,
    line_size: int,
    associativity: int,
) -> np.ndarray:
    """Boolean miss mask of the trace on a k-way LRU cache (vectorized).

    The whole trace as one chunk of a :class:`StreamingAssocCache`; agrees
    element-for-element with :func:`repro.cache.assoc.miss_mask_assoc`.
    """
    return StreamingAssocCache(size, line_size, associativity).feed(addresses)
