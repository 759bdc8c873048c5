"""Set-mapping conflict clusters for the closed-form miss predictor.

The paper's severe-conflict analysis (Section 3.1.1) is pairwise and
direct-mapped: two references whose address delta modulo the cache size
falls within one line ping-pong on the same cache line and miss every
iteration.  The predictor generalizes that test to k-way caches the same
way :func:`repro.search.space.pad_space` generalizes the pad grid:

* positions are taken modulo the **set-mapping period** ``size / k``
  (the k-way cache's set index is ``(addr / line) % (size / (line * k))``,
  so placements repeat every ``size / k`` bytes, not every ``size``);
* a group of references landing on the same set only thrashes when more
  *distinct arrays* compete there than the cache has ways -- two
  conflicting references are harmless under a 2-way LRU cache, which is
  exactly the effect ``ext_assoc`` measures empirically.

Only *uniformly related* pairs (constant address delta over the whole
iteration space) are clustered: references advancing at different rates
collide only transiently, and transient overlap is not a steady-state
miss source the way resonance is.  Those pairs are the layout diagram's
``constant_pairs`` (:class:`repro.layout.diagram.NestGeometry`), the same
ones :func:`repro.layout.conflicts.nest_severe_conflicts` calls pad-fixable.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.config import CacheConfig
from repro.ir.loops import LoopNest
from repro.ir.program import Program
from repro.ir.refs import ArrayRef
from repro.layout.diagram import NestGeometry
from repro.layout.layout import DataLayout
from repro.util.mathutil import circular_distance

__all__ = ["ThrashCluster", "thrash_clusters", "thrashing_refs"]


@dataclass(frozen=True)
class ThrashCluster:
    """References resonating on one set of a (possibly k-way) cache."""

    refs: tuple[ArrayRef, ...]
    positions: tuple[int, ...]  # addr mod the set-mapping period
    arrays: tuple[str, ...]  # distinct arrays competing for the set

    @property
    def competitors(self) -> int:
        return len(self.arrays)

    def thrashes(self, associativity: int) -> bool:
        """More competing arrays than ways: LRU evicts the reused line."""
        return self.competitors > associativity


def thrash_clusters(
    program: Program,
    layout: DataLayout,
    nest: LoopNest,
    cache: CacheConfig,
) -> list[ThrashCluster]:
    """Connected components of the nest's set-mapping conflict graph.

    Nodes are the nest's deduplicated references; an edge joins two
    references of *different* arrays whose address delta is constant over
    the iteration space and lies within one line of the set-mapping
    period (same-array pairs within a line are group-spatial reuse, not
    conflicts).  Every returned cluster has at least one edge; call
    :meth:`ThrashCluster.thrashes` to apply the associativity threshold.
    """
    period = cache.size // cache.associativity
    line = cache.line_size
    geometry = NestGeometry.of(program, nest)
    refs = geometry.refs
    bases = layout.bases()
    addrs = [bases[a] + off for a, off, _ in geometry.dots]

    parent = list(range(len(refs)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    edges = 0
    for i, j in geometry.constant_pairs:
        if circular_distance(addrs[i], addrs[j], period) < line:
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj
            edges += 1
    if not edges:
        return []

    groups: dict[int, list[int]] = {}
    for i in range(len(refs)):
        groups.setdefault(find(i), []).append(i)
    clusters = []
    for members in groups.values():
        if len(members) < 2:
            continue
        clusters.append(
            ThrashCluster(
                refs=tuple(refs[i] for i in members),
                positions=tuple(addrs[i] % period for i in members),
                arrays=tuple(sorted({refs[i].array for i in members})),
            )
        )
    clusters.sort(key=lambda c: c.positions)
    return clusters


def thrashing_refs(
    program: Program,
    layout: DataLayout,
    nest: LoopNest,
    cache: CacheConfig,
) -> set[ArrayRef]:
    """References predicted to miss every iteration on ``cache``."""
    out: set[ArrayRef] = set()
    for cluster in thrash_clusters(program, layout, nest, cache):
        if cluster.thrashes(cache.associativity):
            out.update(cluster.refs)
    return out
