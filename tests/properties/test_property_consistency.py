"""Consistency properties of the one layout diagram every padding pass reads.

GROUPPAD's objective (:func:`repro.layout.diagram.exploited_count`) must
count exactly the group-temporal arcs :class:`repro.CacheDiagram` marks
exploited, and PAD's conflict test
(:func:`repro.layout.diagram.severe_conflict`) must fire exactly for the
arrays :func:`repro.layout.conflicts.program_severe_conflicts` reports in
a pad-fixable pair.  GROUPPAD's arithmetic candidate scan
(:func:`repro.layout.diagram.best_pad`), which scores every candidate in
one array pass, must pick the pad that building a layout per candidate and
drawing its diagrams would -- in each of GROUPPAD's phases, and on a nest
wide enough to split the pass into blocks.  Programs come from a
column-stencil strategy and from the differential fuzzer's
:func:`repro.fuzz.generator.random_program`.
"""

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CacheDiagram, DataLayout, ProgramBuilder
from repro.fuzz.generator import random_program
from repro.ir.loops import Statement
from repro.layout.conflicts import program_severe_conflicts
from repro.layout.diagram import (
    DiagramGeometry,
    best_pad,
    exploited_count,
    severe_conflict,
)
from repro.transforms.grouppad import grouppad
from repro.util.mathutil import circular_distance

GEOMETRIES = [(16 * 1024, 32), (4096, 32), (1024, 16)]


def _padded(draw, prog):
    layout = DataLayout.sequential(prog)
    for name in layout.order[1:]:
        layout = layout.add_pad(name, draw(st.integers(0, 511)) * 8)
    return layout


@st.composite
def stencil_layouts(draw):
    """A multi-array column-stencil program plus random pads."""
    narrays = draw(st.integers(2, 4))
    n = draw(st.sampled_from([256, 512, 896, 1024]))
    b = ProgramBuilder("p")
    handles = [b.array(f"A{k}", (n, 8)) for k in range(narrays)]
    i, j = b.vars("i", "j")
    stmts = [b.use(reads=[h[i, j], h[i, j + 1]], flops=1) for h in handles]
    b.nest([b.loop(j, 1, 7), b.loop(i, 1, n)], stmts)
    prog = b.build()
    return prog, _padded(draw, prog)


@st.composite
def fuzzed_layouts(draw):
    """A fuzzer-generated program plus random pads."""
    prog = random_program(draw(st.integers(0, 10_000)))
    return prog, _padded(draw, prog)


layouts = st.one_of(stencil_layouts(), fuzzed_layouts())


def _placed_only(prog, placed):
    """``prog`` without the references to arrays outside ``placed``, so
    their dots cannot block an arc."""
    keep = set(placed)
    nests = []
    for nest in prog.nests:
        body = tuple(
            Statement(tuple(r for r in st.refs if r.array in keep), st.flops)
            for st in nest.body
            if any(r.array in keep for r in st.refs)
        )
        if body:
            nests.append(nest.with_body(body))
    return prog.with_nests(nests)


def _prefix(layout, placed):
    """``layout`` cut to ``placed``, a prefix of its order: same bases."""
    n = len(placed)
    assert layout.order[:n] == tuple(placed)
    return DataLayout(layout.order[:n], layout.pads[:n], layout.sizes[:n], layout.origin)


def _temporal_exploited(prog, layout, cache, line):
    return sum(
        1
        for nest in prog.nests
        for a in CacheDiagram(prog, layout, nest, cache, line).arcs
        if a.exploited and a.reuse.distance_bytes >= line
    )


@st.composite
def scans(draw):
    """One ``best_pad`` call as a GROUPPAD phase makes it.

    ``greedy`` places a prefix of the order against itself, ``refine``
    re-places one array with all of them placed, and ``recursive`` is the
    L2 phase: an ``S1``-stride ring over the ``S2`` cache with no conflict
    test.  The ring may start anywhere or step one byte at a time, and the
    array may be the first.
    """
    prog, layout = draw(layouts)
    cache, line = draw(st.sampled_from([(1024, 32), (512, 16), (2048, 64)]))
    index = draw(st.one_of(st.just(0), st.integers(0, len(layout.order) - 1)))
    phase = draw(st.sampled_from(["greedy", "refine", "recursive"]))
    placed = layout.order if phase == "refine" else layout.order[: index + 1]
    step, sizes = line, (cache,)
    if phase == "recursive":
        step, sizes = cache, ()
        cache *= draw(st.sampled_from([2, 4]))
        line *= draw(st.sampled_from([1, 2]))
    start = draw(st.integers(0, 3 * step))
    ring = range(start, start + cache, step)
    if draw(st.booleans()):
        # Every byte of a stretch of the ring: pads that land dots exactly
        # on the edges of the arc and conflict windows.
        start = draw(st.integers(0, cache))
        ring = range(start, start + 2 * line)
    return prog, layout, layout.order[index], ring, placed, cache, line, sizes


def wide_nest():
    """Three arrays read at 70 column offsets each in one nest.

    Short columns keep each array's dots a few KB apart in all, so where
    the arrays overlap on the cache decides which arcs are exploited.
    ``A`` and ``B`` share a column length and ``C`` has its own, so only
    the pairs between ``A`` and ``B`` keep a constant address delta.
    """
    b = ProgramBuilder("wide")
    handles = [
        b.array(name, (rows, 100)) for name, rows in (("A", 8), ("B", 8), ("C", 9))
    ]
    i, j = b.vars("i", "j")
    stmts = [
        b.use(reads=[h[i, j + c] for c in range(c0, 70, 5)], flops=1)
        for h in handles
        for c0 in range(5)
    ]
    b.nest([b.loop(j, 1, 20), b.loop(i, 1, 6)], stmts)
    return b.build()


def _reference_grouppad(prog, layout, cache, line):
    """GROUPPAD's greedy phase and one refinement pass, each pad chosen by
    building every candidate layout.  Conflicts are read off the constant
    reference deltas, found pair by pair over the nest's references.  Each
    scan also checks the diagram's scores of all its candidates."""
    geometry = DiagramGeometry.of(prog)
    deltas = set()
    for nest in prog.nests:
        refs = [r for r, _ in nest.unique_refs]
        offs = [r.offset_expr(prog.decl(r.array)) for r in refs]
        for i, j in combinations(range(len(refs)), 2):
            diff = offs[i] - offs[j]
            if refs[i].array != refs[j].array and diff.is_constant:
                deltas.add((refs[i].array, refs[j].array, diff.constant))

    def key(sub, out, name, pad, placed):
        lay = out.with_pad(name, pad)
        bases = lay.bases()
        conflict = any(
            name in (a, b)
            and {a, b} <= set(placed)
            and circular_distance((bases[a] - bases[b] + d) % cache, 0, cache) < line
            for a, b, d in deltas
        )
        return (
            not conflict,
            _temporal_exploited(sub, _prefix(lay, placed), cache, line),
        )

    def place(out, name, placed, start):
        sub = _placed_only(prog, placed)
        ring = range(start, start + cache, line)
        keys = [key(sub, out, name, pad, placed) for pad in ring]
        # The one-pass scores of every candidate, not just the winner.
        bases, moved = out.with_pad(name, 0).bases(), out.order[out.index_of(name):]
        others = set(placed) - {name}
        assert list(
            exploited_count(geometry, bases, placed, cache, line, moved, ring)
        ) == [arcs for _, arcs in keys]
        assert list(
            ~severe_conflict(geometry, bases, name, others, (cache,), line, moved, ring)
        ) == [free for free, _ in keys]
        return ring[keys.index(max(keys))]

    out = layout
    for i, name in enumerate(layout.order[1:], 1):
        out = out.with_pad(name, place(out, name, layout.order[: i + 1], out.pads[i]))
    for i, name in enumerate(layout.order[1:], 1):
        out = out.with_pad(name, place(out, name, layout.order, out.pads[i] % line))
    return out


class TestDiagramScorerAgreement:
    @given(data=layouts, geometry=st.sampled_from(GEOMETRIES))
    @settings(max_examples=60, deadline=None)
    def test_grouppad_scorer_matches_diagram(self, data, geometry):
        """GROUPPAD's objective counts exactly the group-temporal arcs
        (span >= line) the CacheDiagram marks exploited."""
        prog, layout = data
        cache, line = geometry
        diagram_count = sum(
            1
            for nest in prog.nests
            for a in CacheDiagram(prog, layout, nest, cache, line).arcs
            if a.exploited and a.reuse.distance_bytes >= line
        )
        objective = exploited_count(
            DiagramGeometry.of(prog), layout.bases(),
            tuple(a.name for a in prog.arrays), cache, line,
        )
        assert objective == diagram_count

    @given(data=layouts, geometry=st.sampled_from(GEOMETRIES))
    @settings(max_examples=60, deadline=None)
    def test_conflict_predicate_matches_fixable_report(self, data, geometry):
        """The shared conflict predicate fires for an array exactly when the
        conflict report lists a pad-fixable pair involving it."""
        prog, layout = data
        cache, line = geometry
        report = program_severe_conflicts(prog, layout, cache, line)
        geom = DiagramGeometry.of(prog)
        bases = layout.bases()
        for name in (a.name for a in prog.arrays):
            reported = any(
                name in (p.ref_a.array, p.ref_b.array) for p in report.fixable
            )
            others = {a.name for a in prog.arrays} - {name}
            assert severe_conflict(
                geom, bases, name, others, (cache,), line
            ) == reported

    @given(scan=scans())
    @settings(max_examples=60, deadline=None)
    def test_scan_matches_layout_built_per_candidate(self, scan):
        """In every GROUPPAD phase, the scan's winner is the first pad
        maximizing (no fixable conflict involving the array, exploited
        group-temporal arcs) over per-candidate layouts of the placed
        arrays -- so shifting every later array arithmetically, and
        ignoring the dots of arrays not yet placed, is exact."""
        prog, layout, name, ring, placed, cache, line, sizes = scan

        sub = _placed_only(prog, placed)

        def key(pad):
            lay = _prefix(layout.with_pad(name, pad), placed)
            conflict = any(
                name in (p.ref_a.array, p.ref_b.array)
                for size in sizes
                for p in program_severe_conflicts(sub, lay, size, line).fixable
            )
            return (not conflict, _temporal_exploited(sub, lay, cache, line))

        keys = [key(pad) for pad in ring]
        expected = ring[keys.index(max(keys))]
        assert best_pad(
            DiagramGeometry.of(prog), layout, name, ring, placed,
            cache, line, sizes,
        ) == expected

    def test_wide_nest_grouppad_matches_layout_built_per_candidate(self):
        """One nest of 210 unique references over three arrays: more arcs
        than one scoring block holds, and constant-delta pairs between
        only some of the arrays.  GROUPPAD must pick the pads a
        per-candidate scan of built layouts picks."""
        prog = wide_nest()
        seq = DataLayout.sequential(prog)
        cache, line = 8192, 32
        assert len(prog.nests[0].unique_refs) >= 200
        assert grouppad(prog, seq, cache, line) == _reference_grouppad(
            prog, seq, cache, line
        )
