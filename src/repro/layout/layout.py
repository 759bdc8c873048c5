"""The global data layout: variable order and inter-variable pads.

A layout assigns every array a byte base address.  Addresses are derived
from (a) the order of variables in the global structure and (b) a pad
inserted *before* each variable, exactly the mechanism the paper's SUIF
passes use ("reordering fields in the structure and inserting pad
variables").  Layouts are immutable; transformations return new ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.errors import LayoutError
from repro.ir.program import Program

__all__ = ["DataLayout"]


@dataclass(frozen=True)
class DataLayout:
    """Byte base addresses for a program's arrays.

    ``order`` is the sequence of array names in memory; ``pads`` maps each
    name to the pad (in bytes) inserted immediately before it; ``sizes``
    records each array's extent in bytes.  Base addresses follow from the
    three together.
    """

    order: tuple[str, ...]
    pads: tuple[int, ...]
    sizes: tuple[int, ...]
    origin: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "order", tuple(self.order))
        object.__setattr__(self, "pads", tuple(int(p) for p in self.pads))
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        if len({*self.order}) != len(self.order):
            raise LayoutError(f"duplicate array in layout order {self.order}")
        if not (len(self.order) == len(self.pads) == len(self.sizes)):
            raise LayoutError("order, pads and sizes must have equal length")
        if any(p < 0 for p in self.pads):
            raise LayoutError(f"negative pad in {self.pads}")
        if any(s <= 0 for s in self.sizes):
            raise LayoutError(f"non-positive array size in {self.sizes}")
        if self.origin < 0:
            raise LayoutError("origin must be non-negative")

    # -- construction -------------------------------------------------------
    @classmethod
    def sequential(
        cls,
        program: Program,
        alignment: int = 8,
        origin: int = 0,
    ) -> "DataLayout":
        """Arrays contiguous in declaration order (the "original" layout).

        ``alignment`` pads each array's start to a multiple of that many
        bytes, as a Fortran compiler would align COMMON block members.
        """
        if alignment <= 0:
            raise LayoutError("alignment must be positive")
        order, pads, sizes = [], [], []
        addr = origin
        for decl in program.arrays:
            pad = (-addr) % alignment
            order.append(decl.name)
            pads.append(pad)
            sizes.append(decl.size_bytes)
            addr += pad + decl.size_bytes
        return cls(tuple(order), tuple(pads), tuple(sizes), origin)

    # -- queries ------------------------------------------------------------
    def index_of(self, name: str) -> int:
        try:
            return self.order.index(name)
        except ValueError:
            raise LayoutError(f"array {name!r} not in layout") from None

    def base(self, name: str) -> int:
        """Byte base address of array ``name``."""
        idx = self.index_of(name)
        addr = self.origin
        for i in range(idx + 1):
            addr += self.pads[i]
            if i < idx:
                addr += self.sizes[i]
        return addr

    def bases(self) -> dict[str, int]:
        """All base addresses, keyed by array name."""
        out: dict[str, int] = {}
        addr = self.origin
        for name, pad, size in zip(self.order, self.pads, self.sizes):
            addr += pad
            out[name] = addr
            addr += size
        return out

    @property
    def total_bytes(self) -> int:
        """Total extent of the layout including pads."""
        return sum(self.pads) + sum(self.sizes)

    @property
    def total_padding(self) -> int:
        return sum(self.pads)

    # -- rewriting ------------------------------------------------------------
    def with_pad(self, name: str, pad: int) -> "DataLayout":
        """Set the pad before ``name`` (replacing, not adding)."""
        if pad < 0:
            raise LayoutError(f"pad for {name} must be non-negative, got {pad}")
        idx = self.index_of(name)
        pads = list(self.pads)
        pads[idx] = pad
        return DataLayout(self.order, tuple(pads), self.sizes, self.origin)

    def add_pad(self, name: str, extra: int) -> "DataLayout":
        """Increase the pad before ``name`` by ``extra`` bytes."""
        idx = self.index_of(name)
        return self.with_pad(name, self.pads[idx] + extra)

    def with_pads(self, pads: Mapping[str, int]) -> "DataLayout":
        out = self
        for name, pad in pads.items():
            out = out.with_pad(name, pad)
        return out
