"""Autotuner behaviour: budgets, baselines, memoization, reports.

These run real (tiny) simulations through the ping-pong kernel, so they
also exercise the space -> SimJob -> SweepExecutor -> objective path end
to end.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DataLayout
from repro.errors import ReproError
from repro.exec.executor import SweepExecutor
from repro.exec.store import ResultStore
from repro.search import Autotuner, pad_space
from repro.search.objective import Objective
from repro.search.strategies import STRATEGIES
from repro.transforms.pad import multilvl_pad
from tests.search.conftest import build_pingpong, build_tiny_hier

ALL_STRATEGIES = sorted(STRATEGIES)


def make_ping_space():
    """Pad space for the ping-pong kernel, seeded with MULTILVLPAD's pick."""
    prog = build_pingpong()
    hier = build_tiny_hier()
    layout = DataLayout.sequential(prog)
    heuristic = multilvl_pad(prog, layout, hier)
    space = pad_space(
        prog, layout, hier, max_lines=8, include={"B": heuristic.pads[1]}
    )
    return space, (heuristic.pads[1],)


@pytest.fixture
def ping_space():
    return make_ping_space()


class TestBudgetAndReport:
    def test_budget_caps_evaluations(self, ping_space):
        space, baseline = ping_space
        report = Autotuner().search(
            space, strategy="exhaustive", budget=3, seed=7, baseline=baseline
        )
        assert report.evaluations <= 3
        assert report.stopped == "budget"

    def test_exhaustive_completes_within_generous_budget(self, ping_space):
        space, baseline = ping_space
        report = Autotuner().search(
            space, strategy="exhaustive", budget=100, baseline=baseline
        )
        assert report.evaluations == space.size
        assert report.stopped == "completed"

    def test_invalid_budget_rejected(self, ping_space):
        space, _ = ping_space
        with pytest.raises(ReproError):
            Autotuner().search(space, budget=0)

    def test_trajectory_is_decreasing_and_anchored(self, ping_space):
        space, baseline = ping_space
        report = Autotuner().search(
            space, strategy="exhaustive", baseline=baseline
        )
        values = [v for _, v in report.trajectory]
        assert values == sorted(values, reverse=True)
        assert report.trajectory[-1][1] == report.best_objective
        xs = [x for x, _ in report.trajectory]
        assert xs == sorted(xs)
        assert 1 <= xs[0]

    def test_report_formats(self, ping_space):
        space, baseline = ping_space
        report = Autotuner().search(space, strategy="exhaustive", baseline=baseline)
        assert report.baseline_config == baseline
        assert report.evaluations == space.size
        assert report.gap_pct is not None and report.gap_pct >= 0.0

    def test_objective_override(self, ping_space, tiny_hier):
        space, baseline = ping_space
        report = Autotuner().search(
            space,
            strategy="exhaustive",
            objective=Objective("L1-miss-rate", lambda r, h: r.miss_rate("L1")),
            baseline=baseline,
        )
        assert report.objective == "L1-miss-rate"
        assert 0.0 <= report.best_objective <= 1.0

    def test_baseline_outside_space_rejected(self, ping_space):
        space, _ = ping_space
        with pytest.raises(ReproError):
            Autotuner().search(space, baseline=(33,))


class TestSearchProperties:
    @settings(max_examples=12, deadline=None)
    @given(name=st.sampled_from(ALL_STRATEGIES), seed=st.integers(0, 50))
    def test_deterministic_and_config_in_space(self, name, seed):
        """Fixed seed -> identical report; best config is a space point."""
        space, baseline = make_ping_space()

        def once():
            return Autotuner().search(
                space, strategy=name, budget=10, seed=seed, baseline=baseline
            )

        a, b = once(), once()
        assert a.best_config == b.best_config
        assert a.best_objective == b.best_objective
        assert a.evaluations == b.evaluations
        assert a.trajectory == b.trajectory
        assert space.contains(a.best_config)

    @settings(max_examples=12, deadline=None)
    @given(name=st.sampled_from(ALL_STRATEGIES), seed=st.integers(0, 50))
    def test_never_worse_than_seeded_baseline(self, name, seed):
        space, baseline = make_ping_space()
        report = Autotuner().search(
            space, strategy=name, budget=10, seed=seed, baseline=baseline
        )
        assert report.baseline_config == baseline
        assert report.best_objective <= report.baseline_objective


class TestMemoization:
    def test_in_run_memo_avoids_resimulation(self, ping_space):
        space, baseline = ping_space
        tuner = Autotuner()
        report = tuner.search(
            space, strategy="coordinate", budget=20, baseline=baseline
        )
        # Coordinate descent re-proposes the current point on every axis
        # sweep; those replays must come from the in-run memo, and the
        # executor must never have simulated one config twice.
        assert report.memo_hits > 0
        keys = [
            r.key
            for stats in tuner.executor.history
            for r in stats.records
            if r.source != "cache"
        ]
        assert len(keys) == len(set(keys))

    def test_result_store_serves_repeat_searches(self, ping_space, tmp_path):
        space, baseline = ping_space
        store = ResultStore(tmp_path / "store")
        cold = Autotuner(store=store).search(
            space, strategy="exhaustive", baseline=baseline
        )
        assert cold.store_hits == 0
        warm = Autotuner(store=store).search(
            space, strategy="exhaustive", baseline=baseline
        )
        assert warm.store_hits == warm.evaluations
        assert warm.best_config == cold.best_config
        assert warm.best_objective == cold.best_objective

    def test_shared_executor_is_used(self, ping_space):
        space, baseline = ping_space
        ex = SweepExecutor(workers=1)
        Autotuner(executor=ex).search(space, strategy="exhaustive")
        assert ex.history, "search must run through the shared executor"
