"""The layout-independent diagram geometry and its shared predicates."""

import pytest

from repro import CacheDiagram, DataLayout, ProgramBuilder
from repro.errors import AnalysisError
from repro.layout.diagram import DiagramGeometry, NestGeometry, severe_conflict
from tests.conftest import build_fig2

CACHE, LINE = 16 * 1024, 32


def stencil_pair(n=64):
    """X(i) twice and X(i+4) read, Y(i) written: one arc, two X-Y deltas."""
    b = ProgramBuilder("pair")
    X = b.array("X", (n + 4,))
    Y = b.array("Y", (n,))
    (i,) = b.vars("i")
    b.nest(
        [b.loop(i, 1, n)],
        [b.assign(Y[i], reads=[X[i], X[i + 4], X[i]], flops=2)],
    )
    return b.build()


class TestLowering:
    def test_dots_are_deduplicated_with_multiplicity(self):
        prog = stencil_pair()
        geom = NestGeometry.of(prog, prog.nests[0])
        assert geom.dots == (("X", 0, 2), ("X", 32, 1), ("Y", 0, 1))
        assert all(not r.is_write for r in geom.refs)

    def test_arcs_index_their_endpoint_dots(self):
        prog = stencil_pair()
        geom = NestGeometry.of(prog, prog.nests[0])
        assert geom.arcs == ((0, 1, 32),)
        assert geom.reuse[0].trailing == geom.refs[0]
        assert geom.reuse[0].leading == geom.refs[1]

    def test_constant_deltas_indexed_both_ways(self):
        prog = stencil_pair()
        geom = DiagramGeometry.of(prog)
        assert geom.deltas["X"] == (("Y", 0), ("Y", 32))
        assert geom.deltas["Y"] == (("X", -32), ("X", 0))


class TestPredicates:
    def test_severe_conflict_on_every_listed_cache(self):
        prog = stencil_pair()
        geom = DiagramGeometry.of(prog)
        bases = {"X": 0, "Y": CACHE + 64}
        assert not severe_conflict(geom, bases, "Y", {"X"}, (CACHE,), LINE)
        assert severe_conflict(geom, bases, "Y", {"X"}, (64,), LINE)
        assert not severe_conflict(geom, bases, "Y", set(), (64,), LINE)


class TestValidation:
    @pytest.mark.parametrize("cache, line", [(CACHE, 0), (1000, 32), (-CACHE, 32)])
    def test_diagram_rejects_bad_line(self, cache, line):
        prog = build_fig2(32)
        with pytest.raises(AnalysisError):
            CacheDiagram(prog, DataLayout.sequential(prog), prog.nests[0], cache, line)
