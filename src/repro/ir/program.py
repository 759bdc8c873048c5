"""Whole programs: declared arrays plus an ordered list of loop nests.

Matching the paper's SUIF setup (Section 6.1), all optimized variables live
in one global address space whose base addresses a
:class:`~repro.layout.DataLayout` controls; the :class:`Program` itself is
layout-independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.errors import IRError
from repro.ir.arrays import ArrayDecl
from repro.ir.loops import LoopNest

__all__ = ["Program"]


@dataclass(frozen=True)
class Program:
    """An ordered sequence of loop nests over a set of declared arrays."""

    name: str
    arrays: tuple[ArrayDecl, ...]
    nests: tuple[LoopNest, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise IRError("program needs a name")
        object.__setattr__(self, "arrays", tuple(self.arrays))
        object.__setattr__(self, "nests", tuple(self.nests))
        names = [a.name for a in self.arrays]
        if len(set(names)) != len(names):
            raise IRError(f"duplicate array declarations in program {self.name}")
        decls = {a.name: a for a in self.arrays}
        for nest in self.nests:
            for ref in nest.refs:
                decl = decls.get(ref.array)
                if decl is None:
                    raise IRError(
                        f"program {self.name}: reference to undeclared array {ref.array!r}"
                    )
                if decl.rank != ref.rank:
                    raise IRError(
                        f"program {self.name}: {ref!r} has rank {ref.rank}, "
                        f"array declared rank {decl.rank}"
                    )

    # -- lookups -----------------------------------------------------------
    def decl(self, name: str) -> ArrayDecl:
        for a in self.arrays:
            if a.name == name:
                return a
        raise KeyError(f"program {self.name}: no array named {name!r}")

    def total_refs(self) -> int:
        """Total dynamic reference count (rectangular nests only)."""
        return sum(n.iterations() * n.refs_per_iteration for n in self.nests)

    def total_flops(self) -> int:
        return sum(n.iterations() * n.flops_per_iteration for n in self.nests)

    def total_data_bytes(self) -> int:
        return sum(a.size_bytes for a in self.arrays)

    # -- rewriting -----------------------------------------------------------
    def with_nests(self, nests: Iterable[LoopNest]) -> "Program":
        return Program(self.name, self.arrays, tuple(nests))

    def with_arrays(self, arrays: Iterable[ArrayDecl]) -> "Program":
        return Program(self.name, tuple(arrays), self.nests)

    def replace_nest(self, index: int, nest: LoopNest) -> "Program":
        nests = list(self.nests)
        nests[index] = nest
        return self.with_nests(nests)

    def renamed(self, name: str) -> "Program":
        return Program(name, self.arrays, self.nests)
