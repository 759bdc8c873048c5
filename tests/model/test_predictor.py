"""Unit tests for the closed-form miss predictor (repro.model)."""

import pytest

from repro import DataLayout, ProgramBuilder, simulate_program, ultrasparc_i
from repro.cache.config import CacheConfig, HierarchyConfig
from repro.errors import AnalysisError
from repro.exec.jobs import SimJob
from repro.kernels.registry import get_kernel
from repro.model import (
    PredictedStats,
    LevelPrediction,
    mean_abs_rel_error,
    predict_job,
    predict_nest,
    rankdata,
    spearman,
    thrash_clusters,
    thrashing_refs,
)
from repro.transforms.grouppad import grouppad
from repro.transforms.pad import pad

from tests.conftest import build_fig2, predict
from tests.search.conftest import build_pingpong, build_tiny_hier
from tests.symbolic.test_engine import build_big, build_small, roomy_hier


@pytest.fixture
def hier():
    return build_tiny_hier()


@pytest.fixture
def pingpong():
    return build_pingpong()


class TestResonantExactness:
    """The severe-conflict closed form must match the simulator exactly."""

    def test_pingpong_matches_simulator(self, pingpong, hier):
        layout = DataLayout.sequential(pingpong)
        pred = predict(pingpong, layout, hier)
        sim = simulate_program(pingpong, layout, hier)
        assert pred.total_refs == sim.total_refs
        for p, s in zip(pred.levels, sim.levels):
            assert (p.name, p.accesses, p.misses) == (s.name, s.accesses, s.misses)
        assert not all(p.conflict_misses == 0 for p in pred.predictions)

    def test_padding_away_the_conflict(self, pingpong, hier):
        layout = DataLayout.sequential(pingpong).add_pad(
            "B", hier.l1.line_size
        )
        pred = predict(pingpong, layout, hier)
        sim = simulate_program(pingpong, layout, hier)
        assert all(p.conflict_misses == 0 for p in pred.predictions)
        assert pred.result.level("L1").misses == sim.level("L1").misses
        # ranking holds: the padded layout is predicted (and simulated)
        # strictly better than the resonant one
        resonant = predict(pingpong, DataLayout.sequential(pingpong), hier)
        assert pred.result.level("L1").misses < resonant.result.level("L1").misses


class TestSection64Claims:
    """Section 6.4: "the compiler can predict relative cache miss rates
    fairly accurately by analyzing group reuse" -- on the paper's
    UltraSparc I hierarchy, the predictor must rank layouts the way the
    simulator does and land close to it in absolute terms."""

    def test_estimate_tracks_simulation_ordering(self):
        """The resonant layout is predicted worse than the padded one at
        L1, as simulation agrees (predicted 1.0 -> 0.25, simulated
        1.0 -> 0.925)."""
        hier = ultrasparc_i()
        prog = build_fig2(2048)  # resonant: everything collides
        seq = DataLayout.sequential(prog)
        padded = pad(prog, seq, hier.l1.size, hier.l1.line_size)
        pred_bad = predict(prog, seq, hier).result.miss_rate("L1")
        pred_good = predict(prog, padded, hier).result.miss_rate("L1")
        assert pred_good < pred_bad
        sim_bad = simulate_program(prog, seq, hier).miss_rate("L1")
        sim_good = simulate_program(prog, padded, hier).miss_rate("L1")
        assert sim_good < sim_bad

    def test_grouppad_prediction_close_to_simulation(self):
        """Absolute agreement on a clean stencil: the GROUPPAD layout's
        predicted L1 miss rate is within 0.05 of simulation."""
        hier = ultrasparc_i()
        prog = build_fig2(896)
        layout = grouppad(
            prog, DataLayout.sequential(prog), hier.l1.size, hier.l1.line_size
        )
        predicted = predict(prog, layout, hier).result.miss_rate("L1")
        simulated = simulate_program(prog, layout, hier).miss_rate("L1")
        assert abs(predicted - simulated) < 0.05

    def test_temporal_innermost_costs_nothing(self):
        """``S(j)`` is temporal on the inner ``i`` loop and both 512-byte
        arrays fit L1, so only their 16 + 16 cold lines miss: the
        predictor charges exactly the simulated 32 L1 misses."""
        hier = ultrasparc_i()
        b = ProgramBuilder("t")
        A = b.array("A", (64,))
        S = b.array("S", (64,))
        i, j = b.vars("i", "j")
        b.nest(
            [b.loop(j, 1, 64), b.loop(i, 1, 64)],
            [b.use(reads=[S[j], A[i]])],  # S temporal on inner i
        )
        prog = b.build()
        layout = DataLayout.sequential(prog)
        predicted = predict(prog, layout, hier).result.level("L1").misses
        simulated = simulate_program(prog, layout, hier).level("L1").misses
        assert predicted == simulated == 32


class TestConflictClusters:
    def test_pingpong_is_one_two_array_cluster(self, pingpong, hier):
        layout = DataLayout.sequential(pingpong)
        clusters = thrash_clusters(pingpong, layout, pingpong.nests[0], hier.l1)
        assert len(clusters) == 1
        (cluster,) = clusters
        assert sorted(cluster.arrays) == ["A", "B"]
        assert cluster.thrashes(associativity=1)
        assert not cluster.thrashes(associativity=2)
        assert len(thrashing_refs(pingpong, layout, pingpong.nests[0], hier.l1)) == 2

    def test_kway_mapping_period(self, pingpong):
        """Arrays half a cache apart conflict on 2-way (period S/2), not
        on direct-mapped (period S)."""
        direct = CacheConfig(size=1024, line_size=32, name="L1")
        twoway = CacheConfig(size=1024, line_size=32, name="L1", associativity=2)
        base = DataLayout.sequential(pingpong)
        delta = base.base("B") - base.base("A")
        # shift B so A and B sit exactly 512 bytes apart
        layout = base.add_pad("B", 512 - delta % 1024)
        nest = pingpong.nests[0]
        assert thrash_clusters(pingpong, layout, nest, direct) == []
        clusters = thrash_clusters(pingpong, layout, nest, twoway)
        assert len(clusters) == 1
        # ...and a 2-way cache has the ways to absorb two competitors
        assert not clusters[0].thrashes(associativity=2)


class TestSweepAndResidency:
    def test_strided_spatial_misses(self, hier):
        b = ProgramBuilder("stream")
        n = 4096  # 32 KB: larger than both levels
        A = b.array("A", (n,))
        Bm = b.array("B", (n,))
        (i,) = b.vars("i")
        b.nest([b.loop(i, 1, n)], [b.assign(Bm[i], reads=[A[i]], flops=1)])
        p = b.build()
        # pad by the largest line so the arrays separate at every level
        layout = DataLayout.sequential(p).add_pad("B", hier.l2.line_size)
        pred = predict(p, layout, hier)
        # unit-stride doubles on 32 B lines: one miss per 4 iterations
        assert pred.result.level("L1").misses == 2 * n // 4
        # L2 lines are 64 B: one miss per 8
        assert pred.result.level("L2").misses == 2 * n // 8

    def test_cross_nest_residency_waives_cold_sweep(self, hier):
        b = ProgramBuilder("revisit")
        n = 64  # 512 B: fits both levels
        A = b.array("A", (n,))
        Bm = b.array("B", (n,))
        C = b.array("C", (n,))
        (i,) = b.vars("i")
        b.nest([b.loop(i, 1, n)], [b.assign(Bm[i], reads=[A[i]], flops=1)])
        b.nest([b.loop(i, 1, n)], [b.assign(C[i], reads=[A[i]], flops=1)])
        p = b.build()
        # pad everything apart so no conflicts muddy the water
        layout = (
            DataLayout.sequential(p).add_pad("B", 64).add_pad("C", 128)
        )
        pred = predict(p, layout, hier)
        first, second = pred.nests
        # the second nest re-reads A, left resident by the first
        assert second.levels[0].misses < first.levels[0].misses

    def test_triangular_loops_predict_without_error(self, hier):
        p = get_kernel("linpackd").program(40)
        pred = predict(p, DataLayout.sequential(p), hier)
        assert pred.total_refs > 0
        assert all(lv.misses >= 0 for lv in pred.levels)


class TestPredictedStatsMirror:
    def test_levels_chain_and_clamp(self):
        stats = PredictedStats(
            total_refs=100,
            predictions=(
                LevelPrediction(name="L1", misses=250.0),  # clamped to 100
                LevelPrediction(name="L2", misses=30.4),  # rounds to 30
            ),
        )
        l1, l2 = stats.levels
        assert (l1.accesses, l1.misses) == (100, 100)
        assert (l2.accesses, l2.misses) == (100, 30)
        assert stats.result.memory_refs == 30
        assert stats.result.total_refs == 100

    def test_validation(self):
        with pytest.raises(AnalysisError):
            PredictedStats(total_refs=-1, predictions=(LevelPrediction("L1", 0.0),))
        with pytest.raises(AnalysisError):
            PredictedStats(total_refs=1, predictions=())
        with pytest.raises(AnalysisError):
            LevelPrediction(name="L1", misses=-1.0)


class TestExactLevels:
    """Levels in the exact prefix carry the proven distinct-line count,
    bit-for-bit the simulator's; the others keep the estimated terms."""

    def test_exact_matches_simulator_bitwise(self):
        program = build_small()
        job = SimJob(program, DataLayout.sequential(program), roomy_hier())
        stats = predict_job(job)
        assert stats.exact
        sim = job.run()
        assert stats.result.total_refs == sim.total_refs
        for pred_lv, sim_lv in zip(stats.result.levels, sim.levels):
            assert pred_lv.misses == sim_lv.misses
            assert pred_lv.accesses == sim_lv.accesses

    def test_exact_nest_restricted_matches_simulator(self):
        program = build_pingpong(32)
        job = SimJob(
            program.with_nests([program.nests[0]]), DataLayout.sequential(program),
            roomy_hier(),
        )
        stats = predict_job(job)
        assert stats.exact
        sim = job.run()
        for pred_lv, sim_lv in zip(stats.result.levels, sim.levels):
            assert pred_lv.misses == sim_lv.misses

    def test_inexact_levels_use_predictor_terms(self):
        program = build_big()
        layout = DataLayout.sequential(program)
        stats = predict(program, layout, build_tiny_hier())
        assert not stats.exact
        lv = stats.predictions[0]
        assert not lv.exact
        assert lv.note.startswith("capacity")
        # The estimate is the sum of the per-nest terms, and a sane
        # magnitude: a 1024-line sweep misses at least once per line.
        assert lv.misses == sum(n.levels[0].misses for n in stats.nests)
        assert lv.misses >= 1024

    def test_exact_levels_keep_the_nest_breakdown(self):
        program = build_small()
        layout = DataLayout.sequential(program)
        hier = roomy_hier()
        stats = predict(program, layout, hier)
        assert stats.exact
        (nest,) = program.nests
        assert stats.nests == (predict_nest(program, layout, nest, hier),)

    def test_estimate_never_below_cold_misses(self):
        # Two 129-double arrays touch 65 distinct 32 B lines, one more
        # than the cache holds.  The sweep terms count 2 * 129 / 4 = 64.5
        # lines, but every line's first touch misses: the estimate is
        # raised to the proven 65, as a bigger cache would count exactly.
        b = ProgramBuilder("pair")
        A = b.array("A", (129,))
        Bm = b.array("B", (129,))
        (i,) = b.vars("i")
        b.nest([b.loop(i, 1, 129)], [b.use(reads=[A[i], Bm[i]])])
        program = b.build()
        layout = DataLayout.sequential(program)
        hier = HierarchyConfig(
            levels=(CacheConfig(size=2048, line_size=32, name="L1"),)
        )
        stats = predict(program, layout, hier)
        (l1,) = stats.predictions
        assert not l1.exact and l1.note.startswith("capacity")
        assert stats.nests[0].levels[0].misses == 64.5
        assert l1.misses == 65
        bigger = HierarchyConfig(
            levels=(CacheConfig(size=4096, line_size=32, name="L1"),)
        )
        assert predict(program, layout, bigger).predictions[0].exact

    def test_custom_trace_is_never_exact(self):
        program = build_small()
        job = SimJob(
            program, DataLayout.sequential(program), roomy_hier(), kernel="dot"
        )
        stats = predict_job(job)
        assert not any(p.exact for p in stats.predictions)
        assert all(p.note.startswith("custom-trace") for p in stats.predictions)

    def test_exact_claim_never_wrong_under_padding_sweep(self):
        # Sweep paddings that move the two arrays through every relative
        # set alignment of the tiny L1; whenever the predictor says
        # exact, the simulator must agree exactly.
        program = build_small(32)
        base = DataLayout.sequential(program)
        hier = build_tiny_hier()
        verdicts = set()
        for pad in range(0, 1024 + 32, 32):
            job = SimJob(program, base.with_pad("B", pad), hier)
            stats = predict_job(job)
            verdicts.add(stats.exact)
            if stats.exact:
                sim = job.run()
                for pred_lv, sim_lv in zip(stats.result.levels, sim.levels):
                    assert pred_lv.misses == sim_lv.misses, (
                        f"exact claim wrong at pad={pad}"
                    )
        # The sweep must exercise both branches to mean anything.
        assert verdicts == {True, False}

    def test_exact_requires_integer_count(self):
        with pytest.raises(AnalysisError, match="integer"):
            LevelPrediction("L1", 1.5, exact=True)
        # Estimates may be fractional; exact integral floats pass.
        LevelPrediction("L1", 1.5)
        LevelPrediction("L1", 4.0, exact=True)

    def test_exactness_prefix_enforced(self):
        # An exact level *below* an estimated one is a contradiction: its
        # access stream is the estimated miss stream of the level above.
        exact_l1 = LevelPrediction("L1", 10.0, exact=True)
        exact_l2 = LevelPrediction("L2", 4.0, exact=True)
        with pytest.raises(AnalysisError, match="below an inexact level"):
            PredictedStats(
                total_refs=100,
                predictions=(LevelPrediction("L1", 10.0), exact_l2),
            )
        # The legal orders: exact prefix, then estimated suffix.
        mixed = PredictedStats(
            total_refs=100,
            predictions=(exact_l1, LevelPrediction("L2", 4.0)),
        )
        assert not mixed.exact
        both = PredictedStats(total_refs=100, predictions=(exact_l1, exact_l2))
        assert both.exact


class TestPredictJob:
    def test_one_nest_program_predicts_that_nest(self, hier):
        b = ProgramBuilder("two")
        A = b.array("A", (64,))
        Bm = b.array("B", (64,))
        (i,) = b.vars("i")
        b.nest([b.loop(i, 1, 64)], [b.assign(Bm[i], reads=[A[i]], flops=1)])
        b.nest([b.loop(i, 1, 64)], [b.assign(A[i], reads=[Bm[i]], flops=1)])
        p = b.build()
        layout = DataLayout.sequential(p)
        job = SimJob(program=p.with_nests([p.nests[1]]), layout=layout, hierarchy=hier)
        pred = predict_job(job)
        assert len(pred.nests) == 1
        assert pred.total_refs == 128


class TestValidationMetrics:
    def test_rankdata_ties_average(self):
        assert rankdata([10.0, 20.0, 20.0, 30.0]) == [1.0, 2.5, 2.5, 4.0]

    def test_spearman_perfect_and_reversed(self):
        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
        assert spearman([1, 2, 3, 4], [40, 30, 20, 10]) == pytest.approx(-1.0)

    def test_spearman_degenerate(self):
        assert spearman([5, 5, 5], [5, 5, 5]) == 1.0  # both constant
        assert spearman([5, 5, 5], [1, 2, 3]) == 0.0  # one constant
        assert spearman([1.0], [2.0]) == 1.0
        with pytest.raises(ValueError):
            spearman([1, 2], [1])

    def test_mean_abs_rel_error(self):
        assert mean_abs_rel_error([110, 90], [100, 100]) == pytest.approx(0.1)
        assert mean_abs_rel_error([0, 0], [0, 0]) == 0.0  # both-zero exact
        assert mean_abs_rel_error([5], [0]) == 1.0  # false positive
        with pytest.raises(ValueError):
            mean_abs_rel_error([1], [1, 2])
