"""Cache-layout diagrams: the paper's dots-and-arcs model (Figures 3-5, 7).

A diagram places every (deduplicated) reference of a nest at its position
modulo the cache size, evaluated at a canonical iteration.  Group-reuse
arcs connect consecutive uniformly generated references; an arc is
**exploited** when (a) its memory span is smaller than the cache and (b)
no other reference's dot lies strictly under it.

Why the "no dot under the arc" rule works: all references advance through
memory at the same rate, so data touched by the leading reference at cache
position ``x`` waits ``d`` bytes of sweep (the arc length) until the
trailing reference re-touches it.  Any reference currently positioned
inside the open interval ``(x - d, x)`` reaches ``x`` sooner than the
trailing reference and evicts the line first.  This is exactly the visual
criterion described with Figure 3.

Every padding decision reads this one picture: a program's dots and
arcs (:class:`DiagramGeometry`) are built once, from its lowered form
(:func:`repro.ir.lowering.lower`: a dot is a reference's constant plus
its coefficient column at the canonical point, and a constant-delta pair
is two references with equal columns), and held as integer arrays;
:func:`arc_exploited` and :func:`severe_conflict` evaluate it against a
``bases`` map plus K candidate pads for the arrays a pad moves.
:class:`CacheDiagram` asks about one candidate, PAD about its whole line
ring, and GROUPPAD's one candidate scan, :func:`best_pad`, scores all of
a variable's candidates in one array pass instead of one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterator, Mapping, Sequence

import numpy as np

from repro.analysis.groups import ReuseArc, reuse_arcs
from repro.errors import AnalysisError, ReproError
from repro.ir.loops import LoopNest
from repro.ir.lowering import LoweredNest, frozen_array, lower
from repro.ir.program import Program
from repro.ir.refs import ArrayRef
from repro.layout.layout import DataLayout

__all__ = [
    "Dot", "Arc", "CacheDiagram", "NestGeometry", "DiagramGeometry", "check_cache",
    "arc_exploited", "exploited_count", "severe_conflict", "best_pad",
]

#: Cells per broadcast temporary: arcs are scored in blocks whose
#: ``arcs x dots`` and ``arcs x candidates`` tables stay under this size.
_BLOCK_CELLS = 1 << 16


def check_cache(cache_size: int, line_size: int, error: type[ReproError]) -> None:
    """Reject a cache that is not a positive multiple of a positive line."""
    if line_size <= 0 or cache_size <= 0 or cache_size % line_size:
        raise error(
            f"cache size {cache_size} must be a positive multiple of "
            f"line size {line_size}"
        )


def _constant_pairs(low: LoweredNest) -> tuple[tuple[int, int], ...]:
    """Pairs ``(i, j)``, ``i < j``, of different arrays at a constant delta.

    Two offsets differ by a constant exactly when their coefficient
    columns are equal, so references are bucketed by column and only
    pairs within a bucket are emitted -- linear in the references beyond
    the output.
    """
    buckets: dict[tuple, list[int]] = {}
    for i, column in enumerate(low.coeff.T.tolist()):
        buckets.setdefault(tuple(column), []).append(i)
    array = low.array.tolist()
    return tuple(sorted(
        (i, j)
        for members in buckets.values()
        for n, i in enumerate(members)
        for j in members[n + 1:]
        if array[i] != array[j]
    ))


@dataclass(frozen=True, eq=False)
class NestGeometry:
    """Layout-independent dots, arcs and deltas of one nest.

    ``dots[i] = (array, offset, multiplicity)`` puts the unique reference
    ``refs[i]`` at ``base(array) + offset`` at the nest's canonical
    iteration.  ``arcs[k] = (trailing dot, leading dot, span)`` draws the
    reuse arc ``reuse[k]``.  ``constant_pairs`` lists the dot pairs
    ``(i, j)`` of different arrays whose address delta is the same on every
    iteration -- the only severe conflicts inter-variable padding can fix.

    The same picture lowered to integer columns, which the scorers read:
    dot ``i`` lies in array ``names[dot_array[i]]`` at ``dot_offset[i]``,
    and arc ``k`` runs from dot ``trail[k]`` to dot ``lead[k]`` over
    ``span[k]`` bytes.
    """

    refs: tuple[ArrayRef, ...]
    dots: tuple[tuple[str, int, int], ...]
    reuse: tuple[ReuseArc, ...]
    arcs: tuple[tuple[int, int, int], ...]
    constant_pairs: tuple[tuple[int, int], ...]
    names: tuple[str, ...]
    dot_array: np.ndarray
    dot_offset: np.ndarray
    trail: np.ndarray
    lead: np.ndarray
    span: np.ndarray

    @classmethod
    def of(cls, program: Program, nest: LoopNest) -> "NestGeometry":
        # Memoized on the lowered nest: the predictor and the padding
        # passes read the same nests level after level and pass after pass.
        low = lower(program).nest(nest)
        return low.cached(cls, lambda: cls._build(program, low))

    @classmethod
    def _build(cls, program: Program, low: LoweredNest) -> "NestGeometry":
        names = tuple(dict.fromkeys(r.array for r in low.unique))
        ids = {name: k for k, name in enumerate(names)}
        offsets = (low.const + low.point @ low.coeff).tolist()
        dots = tuple(
            (r.array, off, m)
            for r, off, m in zip(low.unique, offsets, low.multiplicity)
        )
        reuse = tuple(reuse_arcs(program, low.nest))
        arcs = tuple(
            (low.slot(a.trailing), low.slot(a.leading), a.distance_bytes)
            for a in reuse
        )
        columns = np.array(arcs, dtype=np.int64).reshape(-1, 3).T
        return cls(
            low.unique, dots, reuse, arcs, _constant_pairs(low), names,
            dot_array=frozen_array([ids[r.array] for r in low.unique], np.intp),
            dot_offset=frozen_array(offsets),
            trail=frozen_array(columns[0], np.intp),
            lead=frozen_array(columns[1], np.intp),
            span=frozen_array(columns[2]),
        )


@dataclass(frozen=True, eq=False)
class DiagramGeometry:
    """A whole program's diagram geometry, lowered once per program.

    ``deltas`` indexes every nest's constant pairs by array: ``(other,
    d)`` in ``deltas[a]`` means some reference to ``a`` and some reference
    to ``other`` always lie ``base(a) - base(other) + d`` bytes apart.
    ``delta_columns[a] = (others, other, d)`` lowers the same list: pair
    ``p`` lies against array ``others[other[p]]`` at delta ``d[p]``.
    """

    nests: tuple[NestGeometry, ...]
    deltas: Mapping[str, tuple[tuple[str, int], ...]]
    delta_columns: Mapping[str, tuple[tuple[str, ...], np.ndarray, np.ndarray]]

    @classmethod
    def of(cls, program: Program) -> "DiagramGeometry":
        # Memoized on the lowered program: PAD, MULTILVLPAD and GROUPPAD
        # read the same program heuristic after heuristic.
        return lower(program).cached(cls, lambda: cls._build(program))

    @classmethod
    def _build(cls, program: Program) -> "DiagramGeometry":
        nests = tuple(NestGeometry.of(program, nest) for nest in program.nests)
        pairs: dict[str, set[tuple[str, int]]] = {}
        for nest in nests:
            for i, j in nest.constant_pairs:
                (a, off_a, _), (b, off_b, _) = nest.dots[i], nest.dots[j]
                d = off_a - off_b
                pairs.setdefault(a, set()).add((b, d))
                pairs.setdefault(b, set()).add((a, -d))
        deltas = {a: tuple(sorted(p)) for a, p in pairs.items()}
        columns = {}
        for a, listed in deltas.items():
            others = tuple(dict.fromkeys(b for b, _ in listed))
            ids = {b: k for k, b in enumerate(others)}
            columns[a] = (
                others,
                frozen_array([ids[b] for b, _ in listed], np.intp),
                frozen_array([d for _, d in listed]),
            )
        return cls(nests, deltas, columns)


def _pads(pads: Sequence[int]) -> np.ndarray:
    if isinstance(pads, range):
        return np.arange(pads.start, pads.stop, pads.step, dtype=np.int64)
    return np.asarray(pads, dtype=np.int64).reshape(-1)


def _flags(names: Sequence[str], members: Collection[str] | None) -> np.ndarray:
    """Which of ``names`` are in ``members`` (all of them when ``None``)."""
    return np.array([members is None or n in members for n in names], dtype=bool)


class _Ring:
    """K candidate pads sorted by their residue modulo one ring size."""

    def __init__(self, pads: np.ndarray, size: int):
        self.size = size
        self.count = len(pads)
        residues = pads % size
        self.order = np.argsort(residues, kind="stable")
        ordered = residues[self.order]
        # Two laps, so a window [a, a + length) with a < size is one slice.
        self.laps = np.concatenate([ordered, ordered + size])

    def hits(
        self,
        const: np.ndarray,
        coef: np.ndarray,
        row: np.ndarray,
        rows: int,
        start: int,
        length: np.ndarray | int,
    ) -> np.ndarray:
        """``[rows, K]``: does some entry of each row fall in the window?

        Entry ``e`` of row ``row[e]`` sits at ``const[e] + coef[e] * pad``
        (``coef`` in -1, 0, 1) under each candidate ``pad``; the window is
        the ring interval ``[start, start + length)`` modulo ``size``.
        Instead of placing every entry under every candidate, each moving
        entry becomes the ring interval of pads that put it in the window,
        and a per-row difference array over the sorted candidates counts
        how many intervals cover each candidate.
        """
        size, count = self.size, self.count
        length = np.minimum(length, size)
        # u: where the entry sits past the window start under pad 0.
        u = (const - start) % size
        hit = np.zeros((rows, count), dtype=bool)
        move = coef != 0
        hit[row[~move & (u < length)]] = True
        if not move.any():
            return hit
        u, coef, row = u[move], coef[move], row[move]
        if np.ndim(length):
            length = length[move]
        # (u + pad) % size < length  <=>  pad % size in [-u, -u + length)
        # (u - pad) % size < length  <=>  pad % size in [u - length + 1, u + 1)
        first = np.where(coef > 0, -u, u - length + 1) % size
        lo = np.searchsorted(self.laps, first)
        hi = np.searchsorted(self.laps, first + length)
        width = 2 * count + 1
        cover = np.bincount(row * width + lo, minlength=rows * width)
        cover -= np.bincount(row * width + hi, minlength=rows * width)
        cover = np.cumsum(cover.reshape(rows, width)[:, : 2 * count], axis=1)
        hit[:, self.order] |= (cover[:, :count] + cover[:, count:]) > 0
        return hit


def _arc_losses(
    nest: NestGeometry,
    selected: np.ndarray | bool,
    bases: Mapping[str, int],
    ring: _Ring,
    line_size: int,
    arrays: Collection[str] | None,
    moved: Collection[str],
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``(block of arcs, [block, K] lost)`` over the ``selected`` arcs
    with ``line <= span <= S - line``, the only ones a layout decides.

    An arc is lost under a candidate when some other dot of ``arrays``
    sits in ``[0, span + line)`` or ``(S - line, S)`` past its trailing
    dot modulo the cache size ``S``: the window of ``span + 2 line - 1``
    positions that starts one line short of ``S``.  A candidate pad moves
    the dots of ``moved`` arrays, so each dot sits ``const + pad * coef``
    past the trailing dot with ``coef`` in -1, 0, 1.
    """
    span = nest.span
    arcs = np.flatnonzero(
        selected & (span >= line_size) & (span + line_size <= ring.size)
    )
    if not len(arcs):
        return
    position = (
        np.array([bases[n] for n in nest.names], dtype=np.int64)[nest.dot_array]
        + nest.dot_offset
    )
    shift = _flags(nest.names, moved).astype(np.int64)[nest.dot_array]
    live = _flags(nest.names, arrays)[nest.dot_array]
    dots = np.arange(len(nest.dots))
    start = ring.size - line_size + 1
    block = max(1, _BLOCK_CELLS // max(len(dots), 2 * ring.count + 1))
    for lo in range(0, len(arcs), block):
        ids = arcs[lo : lo + block]
        trail, lead = nest.trail[ids, None], nest.lead[ids, None]
        row, dot = np.nonzero(live & (dots != trail) & (dots != lead))
        lost = ring.hits(
            position[dot] - position[trail[row, 0]],
            shift[dot] - shift[trail[row, 0]],
            row, len(ids), start,
            span[ids][row] + 2 * line_size - 1,
        )
        yield ids, lost


def arc_exploited(
    nest: NestGeometry,
    bases: Mapping[str, int],
    cache_size: int,
    line_size: int,
) -> np.ndarray:
    """Is each arc of ``nest`` exploited on the cache under ``bases``?

    No foreign dot may fall under the arc *or within one line of its
    endpoints* -- a dot superimposed on an endpoint is a severe conflict
    that flushes the reused data just as surely (Section 3.1.1: severe
    conflicts "would be illustrated by superimposing dots").  An arc
    shorter than a line is group-*spatial* reuse: both references ride the
    same cache line, so the reuse survives any layout (and any level).  An
    arc longer than ``S - line`` is always lost: the sweep itself flushes
    the data before reuse.
    """
    out = nest.span < line_size
    ring = _Ring(np.zeros(1, dtype=np.int64), cache_size)
    for ids, lost in _arc_losses(nest, True, bases, ring, line_size, None, ()):
        out[ids] = ~lost[:, 0]
    return out


def exploited_count(
    geometry: DiagramGeometry,
    bases: Mapping[str, int],
    arrays: Collection[str],
    cache_size: int,
    line_size: int,
    moved: Collection[str] = (),
    pads: Sequence[int] = (0,),
) -> np.ndarray:
    """GROUPPAD's objective under each pad: exploited group-*temporal* arcs.

    Counts the arcs of ``arrays`` that :func:`arc_exploited`'s rule keeps
    when ``pads[k]`` is added to the bases of the ``moved`` arrays.  Arcs
    shorter than a cache line are group-*spatial* reuse -- exploited under
    any layout -- so they are excluded from the objective; counting them
    would let cheap same-line arcs outvote the column arcs GROUPPAD exists
    to preserve.  Only dots of ``arrays`` block an arc.
    """
    pads = _pads(pads)
    ring = _Ring(pads, cache_size)
    total = np.zeros(len(pads), dtype=np.int64)
    for nest in geometry.nests:
        placed = _flags(nest.names, arrays)[nest.dot_array[nest.trail]]
        for ids, lost in _arc_losses(
            nest, placed, bases, ring, line_size, arrays, moved
        ):
            total += len(ids) - lost.sum(axis=0)
    return total


def severe_conflict(
    geometry: DiagramGeometry,
    bases: Mapping[str, int],
    name: str,
    others: Collection[str],
    cache_sizes: Collection[int],
    line_size: int,
    moved: Collection[str] = (),
    pads: Sequence[int] = (0,),
) -> np.ndarray:
    """``[K]``: does ``name`` conflict severely with an array of ``others``?

    True under candidate ``k`` (``pads[k]`` added to the bases of the
    ``moved`` arrays) when a constant-delta reference pair between them
    maps within one line on any of ``cache_sizes``: exactly the
    pad-fixable pairs of
    :func:`repro.layout.conflicts.program_severe_conflicts`.  A delta
    ``r`` modulo the size ``s`` conflicts when ``r < line`` or ``s - r <
    line``: the window of ``2 line - 1`` positions from ``s - line + 1``.
    """
    pads = _pads(pads)
    hit = np.zeros(len(pads), dtype=bool)
    if name not in geometry.delta_columns:
        return hit
    names, other, d = geometry.delta_columns[name]
    keep = _flags(names, others)[other]
    other, d = other[keep], d[keep]
    if not len(d):
        return hit
    const = bases[name] - np.array([bases[n] for n in names], dtype=np.int64)[other] + d
    coef = int(name in moved) - _flags(names, moved).astype(np.int64)[other]
    row = np.zeros(len(d), dtype=np.intp)
    for size in cache_sizes:
        ring = _Ring(pads, size)
        hit |= ring.hits(const, coef, row, 1, size - line_size + 1, 2 * line_size - 1)[0]
    return hit


def best_pad(
    geometry: DiagramGeometry,
    layout: DataLayout,
    name: str,
    candidates: range,
    arrays: Collection[str],
    cache_size: int,
    line_size: int,
    conflict_sizes: Collection[int],
) -> int:
    """The candidate pad for ``name`` that exploits the most arcs.

    Scores each pad in ``candidates`` by ``(free of severe conflicts with
    the other arrays on every cache of conflict_sizes, exploited_count
    over arrays)``; the first best candidate wins ties.  A pad on ``name``
    shifts ``name`` and every later array by the same amount, so all
    candidates are scored in one array pass over the diagram and no
    layout is built per candidate.
    """
    arrays = frozenset(arrays)
    bases = layout.bases()
    idx = layout.index_of(name)
    moved = layout.order[idx:]
    for n in moved:
        bases[n] -= layout.pads[idx]
    pads = _pads(candidates)
    free = ~severe_conflict(
        geometry, bases, name, arrays - {name}, conflict_sizes, line_size,
        moved, pads,
    )
    score = exploited_count(
        geometry, bases, arrays, cache_size, line_size, moved, pads
    )
    # First argmax of (free, score): every free candidate outranks every
    # conflicting one.
    return int(pads[np.argmax(free * (score.max() + 1) + score)])


@dataclass(frozen=True)
class Dot:
    """One reference's position on the cache ring."""

    ref: ArrayRef
    position: int
    multiplicity: int = 1


@dataclass(frozen=True)
class Arc:
    """A group-reuse arc drawn on the diagram."""

    reuse: ReuseArc
    trail_pos: int
    lead_pos: int
    exploited: bool


class CacheDiagram:
    """Dots-and-arcs picture of one nest on one cache level."""

    def __init__(
        self,
        program: Program,
        layout: DataLayout,
        nest: LoopNest,
        cache_size: int,
        line_size: int = 1,
    ):
        check_cache(cache_size, line_size, AnalysisError)
        self.program = program
        self.layout = layout
        self.nest = nest
        self.cache_size = cache_size
        self.line_size = line_size
        geometry = NestGeometry.of(program, nest)
        bases = {a: layout.base(a) for a, _, _ in geometry.dots}
        self.dots: tuple[Dot, ...] = tuple(
            Dot(ref=r, position=(bases[a] + off) % cache_size, multiplicity=m)
            for r, (a, off, m) in zip(geometry.refs, geometry.dots)
        )
        exploited = arc_exploited(geometry, bases, cache_size, line_size)
        self.arcs: tuple[Arc, ...] = tuple(
            Arc(
                reuse=reuse,
                trail_pos=self.dots[trail].position,
                lead_pos=self.dots[lead].position,
                exploited=bool(ok),
            )
            for reuse, (trail, lead, _), ok in zip(
                geometry.reuse, geometry.arcs, exploited
            )
        )

    # -- summary metrics ---------------------------------------------------
    @property
    def exploited_arcs(self) -> tuple[Arc, ...]:
        return tuple(a for a in self.arcs if a.exploited)

    @property
    def exploited_count(self) -> int:
        return len(self.exploited_arcs)

    @property
    def arc_count(self) -> int:
        return len(self.arcs)

    def trailing_refs_exploited(self) -> set[ArrayRef]:
        """Trailing references whose group reuse is exploited on this cache."""
        return {a.reuse.trailing for a in self.arcs if a.exploited}

    # -- rendering -----------------------------------------------------------
    def render_ascii(self, width: int = 72) -> str:
        """ASCII rendition: one box per nest, dots labeled by array name.

        Matches the visual idiom of the paper's figures well enough to be
        read the same way (arcs listed below the box with their status).
        """
        scale = self.cache_size / width
        row = ["-"] * width
        for dot in self.dots:
            col = min(width - 1, int(dot.position / scale))
            label = dot.ref.array[0]
            row[col] = label if row[col] == "-" else "*"
        lines = ["[" + "".join(row) + "]  (cache size %d)" % self.cache_size]
        for arc in self.arcs:
            status = "exploited" if arc.exploited else "LOST"
            lines.append(
                f"  arc {arc.reuse.trailing!r} <- {arc.reuse.leading!r} "
                f"span={arc.reuse.distance_bytes}B: {status}"
            )
        return "\n".join(lines)
