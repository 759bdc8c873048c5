"""Consistency properties of the one layout diagram every padding pass reads.

GROUPPAD's objective (:func:`repro.layout.diagram.exploited_count`) must
count exactly the group-temporal arcs :class:`repro.CacheDiagram` marks
exploited, and PAD's conflict test
(:func:`repro.layout.diagram.severe_conflict`) must fire exactly for the
arrays :func:`repro.layout.conflicts.program_severe_conflicts` reports in
a pad-fixable pair.  GROUPPAD's arithmetic candidate scan
(:func:`repro.layout.diagram.best_pad`) must pick the pad that building a
layout per candidate and drawing its diagrams would.  Programs come from a
column-stencil strategy and from the differential fuzzer's
:func:`repro.fuzz.generator.random_program`.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CacheDiagram, DataLayout, ProgramBuilder
from repro.fuzz.generator import random_program
from repro.layout.conflicts import program_severe_conflicts
from repro.layout.diagram import (
    DiagramGeometry,
    best_pad,
    exploited_count,
    severe_conflict,
)

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
            DiagramGeometry.of(prog), layout.bases(), prog.array_names,
            cache, line,
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
        for name in prog.array_names:
            reported = any(
                name in (p.ref_a.array, p.ref_b.array) for p in report.fixable
            )
            others = set(prog.array_names) - {name}
            assert severe_conflict(
                geom, bases, name, others, (cache,), line
            ) == reported

    @given(
        data=layouts,
        geometry=st.sampled_from([(1024, 32), (512, 16), (2048, 64)]),
        pick=st.integers(0, 100),
    )
    @settings(max_examples=40, deadline=None)
    def test_scan_matches_layout_built_per_candidate(self, data, geometry, pick):
        """With every array placed (GROUPPAD's refinement phase), the scan's
        winner is the first pad maximizing (no fixable conflict involving
        the array, exploited group-temporal arcs) over per-candidate
        layouts -- so shifting every later array arithmetically is exact."""
        prog, layout = data
        cache, line = geometry
        name = layout.order[pick % len(layout.order)]
        ring = range(0, cache, line)

        def key(pad):
            lay = layout.with_pad(name, pad)
            report = program_severe_conflicts(prog, lay, cache, line)
            conflict = any(
                name in (p.ref_a.array, p.ref_b.array) for p in report.fixable
            )
            arcs = sum(
                1
                for nest in prog.nests
                for a in CacheDiagram(prog, lay, nest, cache, line).arcs
                if a.exploited and a.reuse.distance_bytes >= line
            )
            return (not conflict, arcs)

        keys = [key(pad) for pad in ring]
        expected = ring[keys.index(max(keys))]
        assert best_pad(
            DiagramGeometry.of(prog), layout, name, ring, layout.order,
            cache, line, (cache,),
        ) == expected
