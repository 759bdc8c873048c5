"""Configuration spaces for empirical search.

A :class:`SearchSpace` is a finite Cartesian product of integer-valued
:class:`Dimension`\\ s plus a rule that materializes any point of the
product as a :class:`~repro.exec.jobs.SimJob`.  Strategies only ever see
the product structure (dimension names, choice lists, membership tests);
the job builder is what ties a point back to a concrete (program, layout,
hierarchy) simulation.

Two concrete spaces cover the paper's tuning decisions:

* :func:`pad_space` -- inter-variable pad vectors, one dimension per
  array after the first (a uniform shift of the whole block cannot change
  any inter-variable conflict).  Choices step by ``Lmax`` (the MULTILVLPAD
  granularity, valid at every level because each cache size divides the
  next) and optionally extend by multiples of the L1 set-mapping period
  ``S1 / k``, which move an array in the L2 while leaving its L1 set
  fixed -- exactly L2MAXPAD's trick.  For a k-way L1 those multiples
  also move arrays between the k images of each set, the placements a
  direct-mapped model cannot distinguish; the ``ext_assoc`` experiment
  searches them to measure how much headroom the paper's "treat k-way
  as direct-mapped" claim (Section 1) leaves behind.
* :func:`pad_tile_space` -- the joint product of W x H tile edges for
  the Figure 8 tiled matrix multiply (up to L2-sized edges, Section 5)
  *and* inter-variable pads.  The paper tunes the two independently
  (tile for capacity, then pad for conflicts); the joint space is
  usually too large to simulate exhaustively, which is exactly what the
  analytic predict-then-verify strategy is for.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Sequence

from repro.cache.config import HierarchyConfig
from repro.errors import ReproError
from repro.exec.jobs import SimJob
from repro.ir.program import Program
from repro.layout.layout import DataLayout

__all__ = [
    "Dimension",
    "SearchSpace",
    "pad_space",
    "pad_tile_space",
]

Config = tuple[int, ...]


@dataclass(frozen=True)
class Dimension:
    """One searchable axis: a name and its finite, ordered choice list."""

    name: str
    choices: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "choices", tuple(int(c) for c in self.choices))
        if not self.choices:
            raise ReproError(f"dimension {self.name!r} has no choices")
        if len(set(self.choices)) != len(self.choices):
            raise ReproError(f"dimension {self.name!r} has duplicate choices")


@dataclass(frozen=True)
class SearchSpace:
    """A finite product of dimensions with a job-materialization rule.

    ``job_builder`` maps a config (one value per dimension, in dimension
    order) to the :class:`SimJob` that measures it; it is excluded from
    equality so spaces compare by structure.
    """

    name: str
    dimensions: tuple[Dimension, ...]
    job_builder: Callable[[Config], SimJob] = field(compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "dimensions", tuple(self.dimensions))
        if not self.dimensions:
            raise ReproError(f"search space {self.name!r} has no dimensions")
        names = [d.name for d in self.dimensions]
        if len(set(names)) != len(names):
            raise ReproError(f"search space {self.name!r} has duplicate dimensions")

    # -- product structure ---------------------------------------------------
    @property
    def size(self) -> int:
        """Number of points in the space."""
        n = 1
        for d in self.dimensions:
            n *= len(d.choices)
        return n

    def contains(self, config: Sequence[int]) -> bool:
        """True when ``config`` is a point of this space."""
        config = tuple(config)
        return len(config) == len(self.dimensions) and all(
            v in d.choices for v, d in zip(config, self.dimensions)
        )

    def validate(self, config: Sequence[int]) -> Config:
        """``config`` as a canonical tuple; raises when outside the space."""
        cfg = tuple(int(v) for v in config)
        if not self.contains(cfg):
            raise ReproError(f"config {cfg} is not in search space {self.name!r}")
        return cfg

    def configs(self) -> Iterator[Config]:
        """All points, in deterministic lexicographic (choice-order) order."""
        return itertools.product(*(d.choices for d in self.dimensions))

    def random_config(self, rng: random.Random) -> Config:
        """One uniformly drawn point (deterministic for a seeded ``rng``)."""
        return tuple(rng.choice(d.choices) for d in self.dimensions)

    def axis_configs(self, config: Sequence[int], dim_index: int) -> list[Config]:
        """All points reachable from ``config`` by varying one dimension."""
        cfg = self.validate(config)
        out = []
        for choice in self.dimensions[dim_index].choices:
            candidate = list(cfg)
            candidate[dim_index] = choice
            out.append(tuple(candidate))
        return out

    # -- materialization -----------------------------------------------------
    def job(self, config: Sequence[int]) -> SimJob:
        """The simulation measuring one point of the space."""
        return self.job_builder(self.validate(config))


# -- pad space ---------------------------------------------------------------

def pad_space(
    program: Program,
    layout: DataLayout,
    hierarchy: HierarchyConfig,
    kernel=None,
    max_lines: int = 8,
    l2_multiples: int = 1,
    include: Mapping[str, int] | None = None,
    name: str | None = None,
) -> SearchSpace:
    """Inter-variable pad vectors around a base layout.

    One dimension per array in ``layout.order`` except the first: padding
    the first array shifts every array by the same amount, which leaves
    all inter-variable distances -- the only thing severe-conflict
    behaviour depends on -- unchanged.

    Each dimension's choices are ``k * Lmax`` for ``k in [0, max_lines)``
    (``Lmax`` = the hierarchy's largest line size, the granularity at
    which MULTILVLPAD is guaranteed safe for every level), optionally
    crossed with ``m * S1 / k`` for ``m in [0, l2_multiples)``.  A k-way
    L1 of size ``S1`` maps an address to set ``(addr / line) % (S1 /
    (line * k))``, so its set mapping repeats every ``S1 / k`` bytes:
    pads of that period leave the L1 set of everything downstream intact
    while moving it in larger caches (the L2MAXPAD mechanism) and, when
    ``k > 1``, between the k images of each set.  A direct-mapped L1
    gives the period ``S1``.  ``include`` merges extra per-array pad
    values into the grid, so a heuristic layout's exact pads can be made
    representable and used to seed a search.
    """
    if max_lines < 1:
        raise ReproError(f"max_lines must be >= 1, got {max_lines}")
    if l2_multiples < 1:
        raise ReproError(f"l2_multiples must be >= 1, got {l2_multiples}")
    include = dict(include or {})
    unknown = set(include) - set(layout.order)
    if unknown:
        raise ReproError(f"include names unknown arrays: {sorted(unknown)}")
    step = hierarchy.max_line_size
    l1 = hierarchy.l1
    period = l1.size // l1.associativity
    dims = []
    for arr in layout.order[1:]:
        choices = {
            k * step + m * period
            for k in range(max_lines)
            for m in range(l2_multiples)
        }
        if arr in include:
            choices.add(int(include[arr]))
        dims.append(Dimension(name=f"pad:{arr}", choices=tuple(sorted(choices))))
    searched = tuple(layout.order[1:])

    def build(config: Config) -> SimJob:
        padded = layout.with_pads(dict(zip(searched, config)))
        if kernel is not None:
            return SimJob.for_kernel(
                kernel, program, padded, hierarchy, tag=("search", config)
            )
        return SimJob(
            program=program, layout=padded, hierarchy=hierarchy,
            tag=("search", config),
        )

    return SearchSpace(
        name=name or f"pad[{program.name}]",
        dimensions=tuple(dims),
        job_builder=build,
    )


# -- tile x pad space --------------------------------------------------------

def _edge_ladder(n: int, max_edge: int) -> tuple[int, ...]:
    """Geometric candidate tile edges ``4, 6, 9, 13, ...`` up to the bound."""
    bound = max(1, min(n, max_edge))
    edges = {bound}
    e = 4
    while e < bound:
        edges.add(e)
        e = max(e + 1, e * 3 // 2)
    return tuple(sorted(edges))


def pad_tile_space(
    n: int,
    hierarchy: HierarchyConfig,
    element_size: int = 8,
    max_lines: int = 4,
    widths: Sequence[int] | None = None,
    heights: Sequence[int] | None = None,
    include_tile: Sequence[int] | None = None,
    include_pads: Mapping[str, int] | None = None,
    name: str | None = None,
) -> SearchSpace:
    """The joint tile x pad product for the tiled matrix multiply.

    Four dimensions: ``tile:w`` and ``tile:h`` (geometric edge ladders
    bounded by what an L2-sized tile could use) crossed with one pad dimension per matmul array
    after the first (the B and C operands), stepping by ``Lmax`` exactly
    like :func:`pad_space`.  Tiling and padding interact -- a tile shape
    fixes which sub-columns are live at once, and the pads decide whether
    those sub-columns conflict -- so the joint optimum can beat the
    tile-then-pad pipeline; this space makes that measurable.

    The product is deliberately large (it is the stress case for
    predict-then-verify search); ``include_tile`` / ``include_pads``
    merge a heuristic baseline's exact tile edges and pad values into the
    grid so it can seed the search.
    """
    from repro.kernels import matmul  # local: keeps module import light

    if max_lines < 1:
        raise ReproError(f"max_lines must be >= 1, got {max_lines}")
    l2 = hierarchy.l2.size if len(hierarchy) > 1 else hierarchy.l1.size
    max_edge = max(4, l2 // (element_size * 4))
    w_choices = set(widths) if widths is not None else set(_edge_ladder(n, max_edge))
    h_choices = set(heights) if heights is not None else set(_edge_ladder(n, max_edge))
    if include_tile is not None:
        w, h = include_tile
        w_choices.add(int(w))
        h_choices.add(int(h))
    step = hierarchy.max_line_size
    base = matmul.build(n)
    padded_arrays = tuple(a.name for a in base.arrays[1:])
    include_pads = dict(include_pads or {})
    unknown = set(include_pads) - set(padded_arrays)
    if unknown:
        raise ReproError(f"include_pads names unknown arrays: {sorted(unknown)}")
    dims = [
        Dimension(name="tile:w", choices=tuple(sorted(w_choices))),
        Dimension(name="tile:h", choices=tuple(sorted(h_choices))),
    ]
    for arr in padded_arrays:
        choices = {k * step for k in range(max_lines)}
        if arr in include_pads:
            choices.add(int(include_pads[arr]))
        dims.append(Dimension(name=f"pad:{arr}", choices=tuple(sorted(choices))))

    def build(config: Config) -> SimJob:
        w, h = config[0], config[1]
        program = matmul.build_tiled(n, w, h)
        layout = DataLayout.sequential(program).with_pads(
            dict(zip(padded_arrays, config[2:]))
        )
        return SimJob(
            program=program,
            layout=layout,
            hierarchy=hierarchy,
            tag=("search", config),
        )

    return SearchSpace(
        name=name or f"pad_tile[matmul-{n}]",
        dimensions=tuple(dims),
        job_builder=build,
    )
