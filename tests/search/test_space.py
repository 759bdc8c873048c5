"""SearchSpace structure and the two concrete space builders."""

import pytest

from repro import DataLayout, ultrasparc_i
from repro.errors import ReproError
from repro.exec.jobs import SimJob
from repro.search.space import (
    Dimension,
    SearchSpace,
    pad_space,
    pad_tile_space,
)
from tests.conftest import build_fig2


def _nojob(config):  # structure-only spaces never materialize jobs
    raise AssertionError("job_builder should not be called")


def make_space(*choice_lists):
    return SearchSpace(
        name="synthetic",
        dimensions=tuple(
            Dimension(name=f"d{i}", choices=tuple(cs))
            for i, cs in enumerate(choice_lists)
        ),
        job_builder=_nojob,
    )


class TestSearchSpaceStructure:
    def test_size_is_product(self):
        assert make_space([0, 1, 2], [5, 7]).size == 6

    def test_contains_and_validate(self):
        s = make_space([0, 32], [0, 64])
        assert s.contains((32, 0))
        assert not s.contains((1, 0))
        assert not s.contains((32,))
        assert s.validate((32, 64)) == (32, 64)
        with pytest.raises(ReproError):
            s.validate((33, 64))

    def test_configs_enumerates_all_deterministically(self):
        s = make_space([0, 1], [0, 1])
        assert list(s.configs()) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_default_config_is_first_choices(self):
        assert next(make_space([3, 9], [7, 1]).configs()) == (3, 7)

    def test_axis_configs_vary_one_dimension(self):
        s = make_space([0, 1, 2], [5, 7])
        assert s.axis_configs((1, 7), 0) == [(0, 7), (1, 7), (2, 7)]
        assert s.axis_configs((1, 7), 1) == [(1, 5), (1, 7)]

    def test_duplicate_dimension_names_rejected(self):
        with pytest.raises(ReproError):
            SearchSpace(
                name="bad",
                dimensions=(
                    Dimension("x", (0, 1)),
                    Dimension("x", (0, 1)),
                ),
                job_builder=_nojob,
            )

    def test_empty_choices_rejected(self):
        with pytest.raises(ReproError):
            Dimension("x", ())
        with pytest.raises(ReproError):
            Dimension("x", (1, 1))


class TestPadSpace:
    def test_skips_first_array(self, hier):
        prog = build_fig2(64)
        lay = DataLayout.sequential(prog)
        space = pad_space(prog, lay, hier)
        names = [d.name for d in space.dimensions]
        assert names == ["pad:B", "pad:C"]  # A (first in layout) fixed

    def test_choices_step_by_lmax(self, hier):
        prog = build_fig2(64)
        space = pad_space(prog, DataLayout.sequential(prog), hier, max_lines=4)
        lmax = hier.max_line_size
        for d in space.dimensions:
            assert d.choices == (0, lmax, 2 * lmax, 3 * lmax)

    def test_l2_multiples_add_s1_offsets(self, hier):
        prog = build_fig2(64)
        space = pad_space(
            prog, DataLayout.sequential(prog), hier, max_lines=2, l2_multiples=2
        )
        s1, lmax = hier.l1.size, hier.max_line_size
        assert space.dimensions[0].choices == (0, lmax, s1, s1 + lmax)

    def test_include_merges_heuristic_pads(self, hier):
        prog = build_fig2(64)
        space = pad_space(
            prog, DataLayout.sequential(prog), hier, max_lines=2,
            include={"C": 12345},
        )
        assert 12345 in space.dimensions[1].choices
        assert space.contains((0, 12345))

    def test_include_unknown_array_rejected(self, hier):
        prog = build_fig2(64)
        with pytest.raises(ReproError):
            pad_space(
                prog, DataLayout.sequential(prog), hier, include={"nope": 0}
            )

    def test_job_applies_config_pads(self, hier):
        prog = build_fig2(64)
        lay = DataLayout.sequential(prog)
        space = pad_space(prog, lay, hier, max_lines=4)
        lmax = hier.max_line_size
        job = space.job((lmax, 2 * lmax))
        assert isinstance(job, SimJob)
        assert job.layout.pads[job.layout.index_of("B")] == lmax
        assert job.layout.pads[job.layout.index_of("C")] == 2 * lmax
        assert job.hierarchy == hier

    def test_uniform_shift_irrelevance_justifies_fixed_first_pad(self, hier):
        """Shifting every array by the same multiple of the largest line
        size leaves miss counts unchanged -- the reason pad_space has no
        dimension for the first array and steps its choices by Lmax."""
        prog = build_fig2(64)
        lay = DataLayout.sequential(prog)
        shifted = lay.with_pad("A", hier.max_line_size * 3)
        r1 = SimJob(program=prog, layout=lay, hierarchy=hier).run()
        r2 = SimJob(program=prog, layout=shifted, hierarchy=hier).run()
        assert r1 == r2


class TestAssocPadSpace:
    """pad_space over a k-way L1: the coarse stride follows the sets."""

    def _kway(self, hier, k):
        from repro.cache.config import CacheConfig, HierarchyConfig

        return HierarchyConfig(
            levels=tuple(
                CacheConfig(
                    size=c.size, line_size=c.line_size, associativity=k,
                    name=c.name, hit_cycles=c.hit_cycles,
                )
                for c in hier
            ),
            memory_cycles=hier.memory_cycles,
        )

    def test_coarse_stride_is_set_mapping_period(self, hier):
        """Under a 2-way L1 the second-level stride is S1/2, not S1."""
        kway = self._kway(hier, 2)
        prog = build_fig2(64)
        space = pad_space(
            prog, DataLayout.sequential(prog), kway,
            max_lines=2, l2_multiples=2,
        )
        span, lmax = kway.l1.size // 2, kway.max_line_size
        assert space.dimensions[0].choices == (0, lmax, span, span + lmax)

    def test_degenerates_to_pad_space_grid_when_direct_mapped(self, hier):
        """k=1: the stride is S1, the direct-mapped grid; with k+1
        multiples a k-way grid contains that grid -- associativity-aware
        search strictly generalizes."""
        prog = build_fig2(64)
        lay = DataLayout.sequential(prog)
        dm = pad_space(prog, lay, hier, max_lines=3, l2_multiples=2)
        s1, lmax = hier.l1.size, hier.max_line_size
        assert dm.dimensions[0].choices == tuple(sorted(
            k * lmax + m * s1 for k in range(3) for m in range(2)
        ))
        for k in (2, 4):
            kw = pad_space(prog, lay, self._kway(hier, k), max_lines=3,
                           l2_multiples=k + 1)
            for d, e in zip(dm.dimensions, kw.dimensions):
                assert set(d.choices) <= set(e.choices)

    def test_include_merges_heuristic_pads(self, hier):
        kway = self._kway(hier, 4)
        prog = build_fig2(64)
        space = pad_space(
            prog, DataLayout.sequential(prog), kway, max_lines=2,
            include={"C": 54321},
        )
        assert 54321 in space.dimensions[1].choices

    def test_job_applies_config_pads(self, hier):
        kway = self._kway(hier, 2)
        prog = build_fig2(64)
        lay = DataLayout.sequential(prog)
        space = pad_space(prog, lay, kway, max_lines=2, l2_multiples=2)
        span = kway.l1.size // 2
        job = space.job((span, 0))
        assert isinstance(job, SimJob)
        assert job.layout.pads[job.layout.index_of("B")] == span
        assert job.hierarchy == kway

    def test_invalid_parameters_rejected(self, hier):
        kway = self._kway(hier, 2)
        prog = build_fig2(64)
        lay = DataLayout.sequential(prog)
        with pytest.raises(ReproError):
            pad_space(prog, lay, kway, max_lines=0)
        with pytest.raises(ReproError):
            pad_space(prog, lay, kway, l2_multiples=0)
        with pytest.raises(ReproError):
            pad_space(prog, lay, kway, include={"nope": 0})


class TestPadTileSpace:
    def test_dimensions_and_bounds(self):
        hier = ultrasparc_i()
        space = pad_tile_space(100, hier)
        names = [d.name for d in space.dimensions]
        assert names[:2] == ["tile:w", "tile:h"]
        assert all(name.startswith("pad:") for name in names[2:])
        for d in space.dimensions[:2]:
            assert all(1 <= c <= 100 for c in d.choices)

    def test_explicit_edges(self):
        hier = ultrasparc_i()
        space = pad_tile_space(200, hier, widths=[8, 16], heights=[4, 32],
                               max_lines=1)
        assert space.size == 4
        job = space.job((16, 4, 0, 0))
        assert "matmul" in job.program.name
        # The tiled program gained the two tile-controlling loops.
        assert len(job.program.nests[0].loops) == 5

    def test_ladder_is_sorted_unique(self):
        hier = ultrasparc_i()
        space = pad_tile_space(400, hier)
        for d in space.dimensions:
            assert list(d.choices) == sorted(set(d.choices))
