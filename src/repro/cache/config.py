"""Cache and hierarchy configurations.

The paper's experimental hierarchy (Section 6.1) is a 16 KB direct-mapped
L1 with 32-byte lines and a 512 KB direct-mapped L2 with 64-byte lines --
the UltraSparc I configuration.  :func:`ultrasparc_i` builds exactly that.

The multi-level padding theory in the paper assumes each cache's size
evenly divides every larger cache's size (true of real machines of the
era); :class:`HierarchyConfig` validates that property so analyses can rely
on it.

:func:`check_geometry` and :func:`check_trace` are the one input check
every simulator core shares -- direct-mapped, vectorized k-way and the
sequential oracle -- so all of them reject a bad geometry or trace with
the same :class:`~repro.errors.SimulationError`.  A hierarchy is fed
line chunks (:class:`LineChunk`): the line numbers the trace generator
cut for it, without the L1 hits that cannot change cache state, or an
address chunk converted by :meth:`LineChunk.from_addresses` with every
access kept (see ``docs/simulators.md``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import ConfigError, SimulationError

__all__ = [
    "CacheConfig",
    "HierarchyConfig",
    "ultrasparc_i",
    "alpha_21164",
    "check_geometry",
    "check_trace",
    "LineChunk",
    "line_geometry",
]


def check_geometry(size: int, line_size: int, associativity: int = 1) -> int:
    """Validate a simulator's cache geometry; returns its number of sets.

    ``size`` must be a positive multiple of ``line_size * associativity``.
    """
    if (
        line_size <= 0
        or size <= 0
        or associativity <= 0
        or size % (line_size * associativity) != 0
    ):
        raise SimulationError(
            f"invalid cache geometry: size={size}, line_size={line_size}, "
            f"associativity={associativity}"
        )
    return size // (line_size * associativity)


def check_trace(addresses) -> np.ndarray:
    """``addresses`` as a 1-D int64 trace of non-negative byte addresses.

    A non-empty trace must hold integers: a float, bool or string array
    is rejected rather than cast.
    """
    addresses = np.asarray(addresses)
    if addresses.ndim != 1:
        raise SimulationError(f"trace must be 1-D, got shape {addresses.shape}")
    if addresses.size and addresses.dtype.kind not in "iu":
        raise SimulationError(f"trace must hold integers, got dtype {addresses.dtype}")
    addresses = addresses.astype(np.int64, copy=False)
    if addresses.size and addresses.min() < 0:
        raise SimulationError("trace contains negative addresses")
    return addresses


class LineChunk:
    """A trace chunk as the accesses a hierarchy's L1 must classify.

    The trace generator cuts it for one hierarchy
    (:func:`repro.trace.generator.program_line_chunks`): the chunk
    stands for ``refs`` consecutive references, and ``lines`` holds, in
    program order, the line number in units of ``geometry[0]`` bytes of
    each one L1 must see.  The other ``dropped`` references are L1 hits
    on their set's most-recently-used line, so they change no cache
    state at any associativity.  ``geometry`` is
    :func:`line_geometry` of the hierarchy it was cut for; ``len()`` is
    ``refs``.  :meth:`positions` gives each kept access's index among
    the chunk's references, which a hierarchy splitting the chunk at
    timeline windows reads; ``locate`` computes them on demand (None:
    nothing was dropped).
    """

    __slots__ = ("lines", "refs", "geometry", "_locate")

    def __init__(self, lines: np.ndarray, refs: int, geometry: tuple, locate=None):
        self.lines = lines
        self.refs = refs
        self.geometry = geometry
        self._locate = locate

    def __len__(self) -> int:
        return self.refs

    @property
    def dropped(self) -> int:
        return self.refs - self.lines.size

    def positions(self) -> np.ndarray:
        """Index of each kept access among the chunk's ``refs``."""
        if self._locate is None:
            return np.arange(self.refs, dtype=np.int64)
        return self._locate()

    @classmethod
    def from_addresses(cls, addresses, hierarchy: "HierarchyConfig") -> "LineChunk":
        """An address chunk as ``hierarchy``'s line chunk, every access
        kept: the one way addresses enter a hierarchy."""
        # Imported here: repro.cache.assoc_vec imports this module.
        from repro.cache.assoc_vec import narrow_lines

        geometry = line_geometry(hierarchy)
        lines = narrow_lines(check_trace(addresses), geometry[0])
        return cls(lines, int(lines.size), geometry)

    @classmethod
    def join(cls, chunks: list["LineChunk"]) -> "LineChunk":
        """Consecutive chunks of one hierarchy as one chunk."""
        if len(chunks) == 1:
            return chunks[0]
        starts = np.cumsum([0] + [c.refs for c in chunks[:-1]])

        def locate() -> np.ndarray:
            return np.concatenate(
                [c.positions() + s for c, s in zip(chunks, starts.tolist())]
            )

        dropped = any(c._locate is not None for c in chunks)
        return cls(
            np.concatenate([c.lines for c in chunks]),
            int(starts[-1]) + chunks[-1].refs,
            chunks[0].geometry,
            locate if dropped else None,
        )


def line_geometry(config: "HierarchyConfig") -> tuple[int, int, int]:
    """``(unit, line, sets)`` of a hierarchy: the gcd of its line sizes,
    in which it numbers lines, and its L1's line size and set count,
    which decide the accesses a :class:`LineChunk` may drop."""
    l1 = config.levels[0]
    return (
        math.gcd(*(cfg.line_size for cfg in config)),
        l1.line_size,
        l1.size // (l1.line_size * l1.associativity),
    )


@dataclass(frozen=True)
class CacheConfig:
    """One level of cache.

    Parameters
    ----------
    size:
        Capacity in bytes.
    line_size:
        Cache line (block) size in bytes.
    associativity:
        1 for direct-mapped (the paper's assumption), ``k`` for k-way LRU.
    name:
        Display name ("L1", "L2", ...).
    hit_cycles:
        Cost of a hit at this level, used by the cycle/timing model that
        substitutes for the paper's UltraSparc wall-clock measurements.
    """

    size: int
    line_size: int
    associativity: int = 1
    name: str = "cache"
    hit_cycles: float = 1.0

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ConfigError(f"{self.name}: cache size must be positive, got {self.size}")
        if self.line_size <= 0:
            raise ConfigError(
                f"{self.name}: line size must be positive, got {self.line_size}"
            )
        if self.associativity <= 0:
            raise ConfigError(
                f"{self.name}: associativity must be positive, got {self.associativity}"
            )
        if self.size % (self.line_size * self.associativity) != 0:
            raise ConfigError(
                f"{self.name}: size {self.size} is not a multiple of "
                f"line_size*associativity = {self.line_size * self.associativity}"
            )

    @property
    def num_lines(self) -> int:
        """Total number of cache lines."""
        return self.size // self.line_size

    @property
    def num_sets(self) -> int:
        """Number of sets (== ``num_lines`` when direct-mapped)."""
        return self.size // (self.line_size * self.associativity)

    @property
    def is_direct_mapped(self) -> bool:
        return self.associativity == 1


@dataclass(frozen=True)
class HierarchyConfig:
    """An ordered multi-level cache hierarchy, L1 first.

    ``memory_cycles`` is the cost of going to main memory on a miss at the
    last cache level; together with each level's ``hit_cycles`` it defines
    the cycle model used in place of hardware timings.
    """

    levels: tuple[CacheConfig, ...]
    memory_cycles: float = 50.0

    def __post_init__(self) -> None:
        if not self.levels:
            raise ConfigError("hierarchy needs at least one cache level")
        object.__setattr__(self, "levels", tuple(self.levels))
        for upper, lower in zip(self.levels, self.levels[1:]):
            if lower.size <= upper.size:
                raise ConfigError(
                    f"{lower.name} ({lower.size} B) must be larger than "
                    f"{upper.name} ({upper.size} B)"
                )
            if lower.size % upper.size != 0:
                raise ConfigError(
                    f"{upper.name} size {upper.size} must divide "
                    f"{lower.name} size {lower.size} (paper assumption, §3.1.2)"
                )
            if lower.line_size < upper.line_size:
                raise ConfigError(
                    f"{lower.name} line size {lower.line_size} must be >= "
                    f"{upper.name} line size {upper.line_size}"
                )
        if self.memory_cycles <= 0:
            raise ConfigError("memory_cycles must be positive")

    def __iter__(self) -> Iterator[CacheConfig]:
        return iter(self.levels)

    def __len__(self) -> int:
        return len(self.levels)

    @property
    def l1(self) -> CacheConfig:
        return self.levels[0]

    @property
    def l2(self) -> CacheConfig:
        if len(self.levels) < 2:
            raise ConfigError("hierarchy has no L2 cache")
        return self.levels[1]

    @property
    def max_line_size(self) -> int:
        """``Lmax`` from the paper: the largest line size at any level."""
        return max(c.line_size for c in self.levels)

    def multilevel_pad_config(self) -> CacheConfig:
        """The virtual cache MULTILVLPAD targets (paper §3.1.2).

        Combines the *smallest* cache size (S1) with the *largest* line size
        (Lmax).  When all levels share a line size this is exactly the L1
        cache; otherwise the configuration "does not actually exist in the
        memory hierarchy" but padding against it avoids severe conflicts at
        every level by modular arithmetic.
        """
        s1 = self.l1.size
        lmax = self.max_line_size
        # The virtual cache keeps S1 and Lmax; S1 is a multiple of Lmax on
        # all sane configurations (16K / 64B here).
        if s1 % lmax != 0:
            raise ConfigError(
                f"L1 size {s1} is not a multiple of the largest line size {lmax}"
            )
        return CacheConfig(size=s1, line_size=lmax, associativity=1, name="multilvl")

    def miss_cycles(self, level_index: int) -> float:
        """Cycle cost charged when an access is satisfied *below* ``level_index``.

        ``level_index`` is 0-based; an access that misses every level costs
        ``memory_cycles``.
        """
        if level_index + 1 < len(self.levels):
            return self.levels[level_index + 1].hit_cycles
        return self.memory_cycles


def ultrasparc_i(
    l1_size: int = 16 * 1024,
    l1_line: int = 32,
    l2_size: int = 512 * 1024,
    l2_line: int = 64,
) -> HierarchyConfig:
    """The paper's simulated hierarchy (Section 6.1): UltraSparc I.

    16 KB direct-mapped L1 with 32 B lines, 512 KB direct-mapped L2 with
    64 B lines.  ``hit_cycles``/``memory_cycles`` follow UltraSparc-era
    latency ratios (L1 hit 1, L2 hit ~6, memory ~50 cycles).
    """
    return HierarchyConfig(
        levels=(
            CacheConfig(size=l1_size, line_size=l1_line, name="L1", hit_cycles=1.0),
            CacheConfig(size=l2_size, line_size=l2_line, name="L2", hit_cycles=6.0),
        ),
        memory_cycles=50.0,
    )


def alpha_21164() -> HierarchyConfig:
    """A three-level hierarchy modeled on the DEC Alpha 21164.

    The paper cites the 21164 as an example of a three-level cache machine;
    this preset exercises the >2-level generalizations of the padding
    algorithms (8 KB L1 / 96 KB L3-ish scaled to power-of-two multiples so
    the divisibility assumption holds: 8K, 64K, 2M).
    """
    return HierarchyConfig(
        levels=(
            CacheConfig(size=8 * 1024, line_size=32, name="L1", hit_cycles=1.0),
            CacheConfig(size=64 * 1024, line_size=64, name="L2", hit_cycles=5.0),
            CacheConfig(size=2 * 1024 * 1024, line_size=64, name="L3", hit_cycles=12.0),
        ),
        memory_cycles=60.0,
    )
