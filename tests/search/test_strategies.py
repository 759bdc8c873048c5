"""Strategy policy properties, independent of any simulation.

Strategies only see the space and an ``evaluate`` callback, so these
tests drive them with a pure synthetic objective and check the contract
every strategy must honor: proposals stay inside the space, a fixed seed
reproduces the exact proposal sequence, and search never "finds" a value
the objective didn't produce.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.search.space import Dimension, SearchSpace
from repro.search.strategies import (
    STRATEGIES,
    CoordinateDescent,
    ExhaustiveSearch,
    PredictThenVerifyStrategy,
    get_strategy,
)

# "predict" scores configs through space.job() by design (its tier one
# is an analytic objective over jobs), so it is exempt from the
# no-materialization contract and tested separately below.
ALL_STRATEGIES = sorted(set(STRATEGIES) - {"predict"})


def _nojob(config):
    raise AssertionError("strategies must not materialize jobs")


def synth_objective(config):
    """A bumpy but pure deterministic objective."""
    return sum((i + 3) * v * v - 7 * v for i, v in enumerate(config)) % 101


spaces = st.lists(
    st.lists(st.integers(0, 20), min_size=1, max_size=4, unique=True),
    min_size=1,
    max_size=3,
).map(
    lambda dims: SearchSpace(
        name="synthetic",
        dimensions=tuple(
            Dimension(name=f"d{i}", choices=tuple(sorted(cs)))
            for i, cs in enumerate(dims)
        ),
        job_builder=_nojob,
    )
)


def drive(strategy, space, seed=0, start=None):
    """Run a strategy, recording every proposed config in order."""
    proposed = []

    def evaluate(configs):
        proposed.extend(configs)
        for c in configs:
            assert space.contains(c), f"proposal {c} outside space"
        return [synth_objective(c) for c in configs]

    strategy.run(space, evaluate, random.Random(seed), start=start)
    return proposed


class TestContractAcrossStrategies:
    @settings(max_examples=40, deadline=None)
    @given(space=spaces, name=st.sampled_from(ALL_STRATEGIES), seed=st.integers(0, 99))
    def test_proposals_in_space_and_deterministic(self, space, name, seed):
        first = drive(get_strategy(name), space, seed=seed)
        second = drive(get_strategy(name), space, seed=seed)
        assert first == second
        assert first, "every strategy must propose at least one config"

    @settings(max_examples=25, deadline=None)
    @given(space=spaces, name=st.sampled_from(ALL_STRATEGIES), seed=st.integers(0, 99))
    def test_start_config_not_required(self, space, name, seed):
        start = next(space.configs())
        proposed = drive(get_strategy(name), space, seed=seed, start=start)
        assert all(space.contains(c) for c in proposed)


class TestExhaustive:
    @settings(max_examples=25, deadline=None)
    @given(space=spaces)
    def test_visits_every_point_exactly_once(self, space):
        proposed = drive(ExhaustiveSearch(batch_size=7), space)
        assert sorted(proposed) == sorted(space.configs())
        assert len(set(proposed)) == len(proposed)

    def test_batch_size_validated(self):
        with pytest.raises(ReproError):
            ExhaustiveSearch(batch_size=0)


class TestCoordinateDescent:
    @settings(max_examples=25, deadline=None)
    @given(space=spaces, seed=st.integers(0, 99))
    def test_never_ends_worse_than_start(self, space, seed):
        start = next(space.configs())
        proposed = drive(CoordinateDescent(), space, seed=seed, start=start)
        assert proposed[0] == start
        assert min(map(synth_objective, proposed)) <= synth_objective(start)

    @settings(max_examples=25, deadline=None)
    @given(space=spaces)
    def test_finds_axis_optimum_on_single_dimension(self, space):
        """With one dimension, a coordinate sweep IS exhaustive search."""
        if len(space.dimensions) != 1:
            return
        proposed = drive(CoordinateDescent(), space)
        best = min(map(synth_objective, proposed))
        true_best = min(synth_objective(c) for c in space.configs())
        assert best == true_best

    def test_params_validated(self):
        with pytest.raises(ReproError):
            CoordinateDescent(max_passes=0)


def _config_job_space(dims):
    """A space whose ``job`` is the config itself, so a plain callable
    can stand in for the analytic model objective."""
    return SearchSpace(
        name="synthetic",
        dimensions=dims,
        job_builder=lambda config: config,
    )


def drive_predict(space, seed=0, start=None, **kwargs):
    kwargs.setdefault("objective", synth_objective)
    strategy = PredictThenVerifyStrategy(**kwargs)
    return strategy, drive(strategy, space, seed=seed, start=start)


class TestPredictThenVerify:
    def space(self, *choice_lists):
        return _config_job_space(
            tuple(
                Dimension(name=f"d{i}", choices=cs)
                for i, cs in enumerate(choice_lists)
            )
        )

    def test_simulates_only_top_k(self):
        space = self.space((0, 1, 2, 3), (0, 1, 2, 3))
        strategy, proposed = drive_predict(space, top_k=3)
        assert strategy.last_scored == space.size
        assert len(proposed) == 3
        # the verified set is exactly the analytically best-ranked configs
        ranked = sorted(space.configs(), key=lambda c: (synth_objective(c), c))
        assert proposed == ranked[:3]

    def test_start_appended_when_not_in_top(self):
        space = self.space((0, 1, 2, 3), (0, 1, 2, 3))
        ranked = sorted(space.configs(), key=lambda c: (synth_objective(c), c))
        start = ranked[-1]
        _, proposed = drive_predict(space, top_k=2, start=start)
        assert proposed[:2] == ranked[:2]
        assert proposed[-1] == start and len(proposed) == 3

    def test_sampling_above_max_scored_is_deterministic(self):
        space = self.space(tuple(range(12)), tuple(range(12)), tuple(range(12)))
        s1, first = drive_predict(space, seed=7, max_scored=100)
        s2, second = drive_predict(space, seed=7, max_scored=100)
        assert first == second
        assert s1.last_scored == s2.last_scored == 100
        assert all(space.contains(c) for c in first)

    def test_registered_and_validated(self):
        assert get_strategy("predict").name == "predict"
        with pytest.raises(ReproError):
            PredictThenVerifyStrategy(top_k=0)
        with pytest.raises(ReproError):
            PredictThenVerifyStrategy(max_scored=0)


class TestGetStrategy:
    def test_by_name_and_passthrough(self):
        assert get_strategy("coordinate").name == "coordinate"
        inst = ExhaustiveSearch()
        assert get_strategy(inst) is inst

    def test_unknown_rejected(self):
        with pytest.raises(ReproError):
            get_strategy("simulated-annealing")
        with pytest.raises(ReproError):
            get_strategy(42)
