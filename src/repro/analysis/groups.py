"""Uniformly generated reference classes and group-reuse arcs.

Two references participate in group reuse only when they are *uniformly
generated* (same array, subscripts differing by constants), following
Gannon et al. and Wolf & Lam.  Within one class, sorting references by
their constant byte offset orders them along memory; each *consecutive*
pair forms a reuse **arc** -- the leading reference (larger offset)
touches data that the trailing reference re-touches some iterations later.
These arcs are precisely the arcs drawn in the paper's layout diagrams
(Figures 3, 4, 5, 7), and "number of arcs exploited" is the objective
GROUPPAD maximizes.  Byte offsets come from the program's lowered form
(:func:`repro.ir.lowering.lower`): members of a class share a
coefficient column and differ in their constants.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import AnalysisError
from repro.ir.loops import LoopNest
from repro.ir.lowering import lower
from repro.ir.program import Program
from repro.ir.refs import ArrayRef

__all__ = ["UniformClass", "ReuseArc", "uniform_classes", "reuse_arcs"]


@dataclass(frozen=True)
class UniformClass:
    """One equivalence class of uniformly generated references.

    ``refs`` are unique references sorted by increasing ``offsets`` (byte
    offset of each ref relative to the class minimum, so ``offsets[0] == 0``).
    ``multiplicity`` counts how many times each unique reference appears
    textually in the nest -- after fusion a nest can contain the same
    reference twice ("dots may represent two identical references"), and
    only the first occurrence can fault.
    """

    array: str
    refs: tuple[ArrayRef, ...]
    offsets: tuple[int, ...]
    multiplicity: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.refs:
            raise AnalysisError("empty uniform class")
        if len(self.refs) != len(self.offsets) or len(self.refs) != len(self.multiplicity):
            raise AnalysisError("class fields must have equal length")
        if list(self.offsets) != sorted(self.offsets):
            raise AnalysisError("class offsets must be sorted ascending")
        if self.offsets[0] != 0:
            raise AnalysisError("class offsets must be relative to the minimum")


@dataclass(frozen=True)
class ReuseArc:
    """A group-reuse arc between two consecutive refs of a uniform class.

    ``trailing`` re-touches the data that ``leading`` accessed
    ``distance_bytes`` earlier in memory (leading has the larger constant
    subscripts).  On a cache of size C the arc is *exploitable* only when
    ``distance_bytes`` < C and no other reference position falls strictly
    under the arc -- :mod:`repro.layout.diagram` performs that test.
    """

    array: str
    trailing: ArrayRef
    leading: ArrayRef
    distance_bytes: int

    def __post_init__(self) -> None:
        if self.distance_bytes <= 0:
            raise AnalysisError(
                f"arc distance must be positive, got {self.distance_bytes}"
            )


def uniform_classes(program: Program, nest: LoopNest) -> list[UniformClass]:
    """Partition a nest's references into uniformly generated classes.

    References are deduplicated first; classes are returned ordered by
    array name and then by the position of their first reference.  A
    class's byte offsets are the constants of the program's lowered form
    (:func:`repro.ir.lowering.lower`), whose coefficient columns its
    members share.
    """
    low = lower(program).nest(nest)
    uniq = low.unique
    const = low.const.tolist()
    assigned = [False] * len(uniq)
    classes: list[UniformClass] = []
    for i, ref in enumerate(uniq):
        if assigned[i]:
            continue
        members = [i]
        assigned[i] = True
        for j in range(i + 1, len(uniq)):
            if not assigned[j] and ref.is_uniformly_generated_with(uniq[j]):
                members.append(j)
                assigned[j] = True
        # Subscripts that differ by constants give offsets that do too:
        # the members share a coefficient column, so their constants
        # order them along memory.
        members.sort(key=lambda j: const[j])
        lo = const[members[0]]
        classes.append(
            UniformClass(
                array=ref.array,
                refs=tuple(uniq[j] for j in members),
                offsets=tuple(const[j] - lo for j in members),
                multiplicity=tuple(low.multiplicity[j] for j in members),
            )
        )
    return classes


def reuse_arcs(program: Program, nest: LoopNest) -> list[ReuseArc]:
    """All group-reuse arcs of a nest (consecutive pairs in each class).

    Pairs with zero distance never appear: identical references are
    deduplicated into multiplicities instead.
    """
    arcs: list[ReuseArc] = []
    for cls in uniform_classes(program, nest):
        for (r1, o1), (r2, o2) in zip(
            zip(cls.refs, cls.offsets), zip(cls.refs[1:], cls.offsets[1:])
        ):
            arcs.append(
                ReuseArc(
                    array=cls.array,
                    trailing=r1,
                    leading=r2,
                    distance_bytes=o2 - o1,
                )
            )
    return arcs
