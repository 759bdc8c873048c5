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

Every padding decision reads this one picture: a program is lowered once
(:class:`DiagramGeometry`), and :func:`arc_exploited` and
:func:`severe_conflict` evaluate it against a plain ``bases`` map for
:class:`CacheDiagram`, PAD and GROUPPAD's one candidate scan, :func:`best_pad`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Collection, Mapping

from repro.analysis.groups import ReuseArc, reuse_arcs
from repro.errors import AnalysisError, ReproError
from repro.ir.loops import LoopNest
from repro.ir.program import Program
from repro.ir.ranges import canonical_env
from repro.ir.refs import ArrayRef
from repro.layout.layout import DataLayout

__all__ = [
    "Dot", "Arc", "CacheDiagram", "NestGeometry", "DiagramGeometry", "check_cache",
    "arc_exploited", "exploited_count", "severe_conflict", "best_pad",
]


def check_cache(cache_size: int, line_size: int, error: type[ReproError]) -> None:
    """Reject a cache that is not a positive multiple of a positive line."""
    if line_size <= 0 or cache_size <= 0 or cache_size % line_size:
        raise error(
            f"cache size {cache_size} must be a positive multiple of "
            f"line size {line_size}"
        )


@dataclass(frozen=True)
class NestGeometry:
    """Layout-independent dots, arcs and deltas of one nest.

    ``dots[i] = (array, offset, multiplicity)`` puts the unique reference
    ``refs[i]`` at ``base(array) + offset`` at the nest's canonical
    iteration.  ``arcs[k] = (trailing dot, leading dot, span)`` draws the
    reuse arc ``reuse[k]``.  ``constant_pairs`` lists the dot pairs
    ``(i, j)`` of different arrays whose address delta is the same on every
    iteration -- the only severe conflicts inter-variable padding can fix.
    """

    refs: tuple[ArrayRef, ...]
    dots: tuple[tuple[str, int, int], ...]
    reuse: tuple[ReuseArc, ...]
    arcs: tuple[tuple[int, int, int], ...]
    constant_pairs: tuple[tuple[int, int], ...]

    @classmethod
    @lru_cache(maxsize=256)
    def of(cls, program: Program, nest: LoopNest) -> "NestGeometry":
        # Memoized: the predictor and the padding passes lower the same
        # nests level after level and candidate after candidate.
        env = canonical_env(nest)
        unique = nest.unique_refs
        refs = tuple(r for r, _ in unique)
        offs = [r.offset_expr(program.decl(r.array)) for r in refs]
        dots = tuple(
            (r.array, int(off.evaluate(env)), m)
            for (r, m), off in zip(unique, offs)
        )
        index = {r: i for i, r in enumerate(refs)}
        reuse = tuple(reuse_arcs(program, nest))
        arcs = tuple(
            (index[a.trailing], index[a.leading], a.distance_bytes) for a in reuse
        )
        pairs = tuple(
            (i, j)
            for i, j in combinations(range(len(refs)), 2)
            if refs[i].array != refs[j].array and (offs[i] - offs[j]).is_constant
        )
        return cls(refs, dots, reuse, arcs, pairs)


@dataclass(frozen=True)
class DiagramGeometry:
    """A whole program's diagram geometry, lowered once per program.

    ``deltas`` indexes every nest's constant pairs by array: ``(other,
    d)`` in ``deltas[a]`` means some reference to ``a`` and some reference
    to ``other`` always lie ``base(a) - base(other) + d`` bytes apart.
    """

    nests: tuple[NestGeometry, ...]
    deltas: Mapping[str, tuple[tuple[str, int], ...]]

    @classmethod
    def of(cls, program: Program) -> "DiagramGeometry":
        nests = tuple(NestGeometry.of(program, nest) for nest in program.nests)
        pairs: dict[str, set[tuple[str, int]]] = {}
        for nest in nests:
            for i, j in nest.constant_pairs:
                (a, off_a, _), (b, off_b, _) = nest.dots[i], nest.dots[j]
                d = off_a - off_b
                pairs.setdefault(a, set()).add((b, d))
                pairs.setdefault(b, set()).add((a, -d))
        return cls(nests, {a: tuple(sorted(p)) for a, p in pairs.items()})


def arc_exploited(
    nest: NestGeometry,
    arc: int,
    bases: Mapping[str, int],
    cache_size: int,
    line_size: int,
    arrays: Collection[str] | None = None,
) -> bool:
    """Is arc ``arc`` of ``nest`` exploited on the cache under ``bases``?

    No foreign dot may fall under the arc *or within one line of its
    endpoints* -- a dot superimposed on an endpoint is a severe conflict
    that flushes the reused data just as surely (Section 3.1.1: severe
    conflicts "would be illustrated by superimposing dots").  With
    ``arrays`` given, only those arrays' dots count (a partial layout).
    """
    trail, lead, span = nest.arcs[arc]
    if span < line_size:
        # Group-*spatial* reuse: both references ride the same cache
        # line, so the reuse survives any layout (and any level).
        return True
    if span + line_size > cache_size:
        return False  # the sweep itself flushes the data before reuse
    array, offset, _ = nest.dots[trail]
    trail_addr = bases[array] + offset
    reach, far = span + line_size, cache_size - line_size
    for k, (other, off, _) in enumerate(nest.dots):
        if k == trail or k == lead or (arrays is not None and other not in arrays):
            continue
        rel = (bases[other] + off - trail_addr) % cache_size
        if rel < reach or rel > far:
            return False
    return True


def exploited_count(
    geometry: DiagramGeometry,
    bases: Mapping[str, int],
    arrays: Collection[str],
    cache_size: int,
    line_size: int,
) -> int:
    """GROUPPAD's objective: exploited group-*temporal* arcs of ``arrays``.

    Arcs shorter than a cache line are group-*spatial* reuse -- exploited
    under any layout -- so they are excluded from the objective; counting
    them would let cheap same-line arcs outvote the column arcs GROUPPAD
    exists to preserve.  Only dots of ``arrays`` block an arc.
    """
    return sum(
        1
        for nest in geometry.nests
        for k, (trail, _, span) in enumerate(nest.arcs)
        if span >= line_size
        and nest.dots[trail][0] in arrays
        and arc_exploited(nest, k, bases, cache_size, line_size, arrays)
    )


def severe_conflict(
    geometry: DiagramGeometry,
    bases: Mapping[str, int],
    name: str,
    others: Collection[str],
    cache_sizes: Collection[int],
    line_size: int,
) -> bool:
    """Does ``name`` conflict severely with an array of ``others``?

    True when a constant-delta reference pair between them maps within one
    line on any of ``cache_sizes``: exactly the pad-fixable pairs of
    :func:`repro.layout.conflicts.program_severe_conflicts`.
    """
    base = bases[name]
    for other, d in geometry.deltas.get(name, ()):
        if other in others:
            total = base - bases[other] + d
            for size in cache_sizes:
                r = total % size
                if r < line_size or size - r < line_size:
                    return True
    return False


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
    over arrays)``; the first best candidate wins ties.  Candidates are
    placed arithmetically: a pad on ``name`` shifts ``name`` and every
    later array by the same amount, so no layout is built per candidate.
    """
    arrays = frozenset(arrays)
    others = arrays - {name}
    bases = layout.bases()
    idx = layout.index_of(name)
    moved = {n: bases[n] - layout.pads[idx] for n in layout.order[idx:]}
    best, best_key = candidates[0], None
    for pad in candidates:
        for n, base in moved.items():
            bases[n] = base + pad
        key = (
            not severe_conflict(
                geometry, bases, name, others, conflict_sizes, line_size
            ),
            exploited_count(geometry, bases, arrays, cache_size, line_size),
        )
        if best_key is None or key > best_key:
            best, best_key = pad, key
    return best


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
        self.arcs: tuple[Arc, ...] = tuple(
            Arc(
                reuse=reuse,
                trail_pos=self.dots[trail].position,
                lead_pos=self.dots[lead].position,
                exploited=arc_exploited(geometry, k, bases, cache_size, line_size),
            )
            for k, (reuse, (trail, lead, _)) in enumerate(
                zip(geometry.reuse, geometry.arcs)
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
