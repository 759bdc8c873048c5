"""Property tests of the predictor's exact levels (hypothesis + the fuzz
corpus).

The one load-bearing promise of an exact level: **an exact claim is
never wrong**.  Whenever :func:`repro.model.predict_job` flags a
level exact, its count must equal the vectorized LRU simulator
bit-for-bit -- over random fuzzed programs, over the committed
regression corpus (cases distilled precisely because *some* backend
disagreed there), and against the sequential oracle.  Downgrades are the
safety valve: they may be conservative, but they must carry a documented
reason.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DataLayout, simulate_program
from repro.cache.config import CacheConfig, HierarchyConfig
from repro.fuzz import (
    FUZZ_HIERARCHIES,
    default_corpus_dir,
    fuzzed_workloads,
    load_corpus,
    oracle_simulate,
)
from repro.trace import generate_trace
from tests.conftest import predict

#: Every downgrade reason the exactness proof documents; "" means exact.
KNOWN_REASONS = {
    "", "custom-trace", "capacity", "budget", "line-split",
    "interference", "inherited",
}

ROOMY = HierarchyConfig(
    levels=(
        CacheConfig(size=16 * 1024, line_size=32, name="L1"),
        CacheConfig(size=64 * 1024, line_size=64, name="L2"),
    )
)

CORPUS = load_corpus(default_corpus_dir())


def reason(prediction) -> str:
    """The downgrade reason heading a level's note ("" when exact)."""
    return prediction.note.partition(":")[0]


def check_exact_levels(program, layout, hierarchy) -> int:
    """Predict, and bit-compare every exact level against the simulator.

    Returns the number of exact levels checked (0 is legal -- a fully
    downgraded program makes no claims to verify).
    """
    stats = predict(program, layout, hierarchy)
    if not any(p.exact for p in stats.predictions):
        return 0
    sim = simulate_program(program, layout, hierarchy)
    checked = 0
    for p, pred_lv, sim_lv in zip(stats.predictions, stats.result.levels, sim.levels):
        if not p.exact:
            break  # exactness is a prefix; nothing below is claimed
        assert pred_lv.misses == sim_lv.misses, (
            f"{pred_lv.name}: predicted {pred_lv.misses} != "
            f"simulator {sim_lv.misses}"
        )
        assert pred_lv.accesses == sim_lv.accesses
        checked += 1
    return checked


class TestFuzzedExactness:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_exact_claims_match_simulator(self, seed):
        for _, program, layout in fuzzed_workloads(seed, count=3):
            for hier in (ROOMY, FUZZ_HIERARCHIES["dm"], FUZZ_HIERARCHIES["2way"]):
                check_exact_levels(program, layout, hier)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_classification_is_deterministic(self, seed):
        [(_, program, layout)] = fuzzed_workloads(seed, count=1)
        hier = FUZZ_HIERARCHIES["2way"]
        assert predict(program, layout, hier) == predict(
            program, layout, hier
        )

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_downgrade_reasons_are_documented(self, seed):
        [(_, program, layout)] = fuzzed_workloads(seed, count=1)
        for hier in FUZZ_HIERARCHIES.values():
            for p in predict(program, layout, hier).predictions:
                assert reason(p) in KNOWN_REASONS
                assert p.exact == (p.note == "")
                assert not p.exact or p.conflict_misses == 0


class TestCorpus:
    """The distilled regression corpus: programs where *some* backend
    pair historically disagreed.  Exactly where a wrong exact claim
    would be most likely -- and most damaging."""

    @pytest.mark.parametrize("case", CORPUS, ids=lambda c: c.name)
    def test_never_a_wrong_exact_claim(self, case):
        layout = DataLayout.sequential(case.program)
        check_exact_levels(case.program, layout, case.hierarchy)

    @pytest.mark.parametrize("case", CORPUS, ids=lambda c: c.name)
    def test_exact_claims_match_sequential_oracle(self, case):
        layout = DataLayout.sequential(case.program)
        stats = predict(case.program, layout, case.hierarchy)
        if not any(p.exact for p in stats.predictions):
            return
        oracle = oracle_simulate(
            generate_trace(case.program, layout), case.hierarchy
        )
        for p, pred_lv, orc_lv in zip(
            stats.predictions, stats.result.levels, oracle.levels
        ):
            if not p.exact:
                break
            assert pred_lv.misses == orc_lv.misses

    @pytest.mark.parametrize("case", CORPUS, ids=lambda c: c.name)
    def test_downgrades_carry_documented_reasons(self, case):
        layout = DataLayout.sequential(case.program)
        stats = predict(case.program, layout, case.hierarchy)
        for p in stats.predictions:
            assert reason(p) in KNOWN_REASONS

    def test_conflict_cases_downgrade_gracefully(self):
        """The corpus's interference-heavy pair must not claim exactness
        -- graceful downgrade, with the honest reason."""
        conflicted = [c for c in CORPUS if c.name.startswith("model-95-")]
        assert conflicted, "expected the model-95 conflict pair in the corpus"
        for case in conflicted:
            layout = DataLayout.sequential(case.program)
            stats = predict(case.program, layout, case.hierarchy)
            assert not any(p.exact for p in stats.predictions)
            assert reason(stats.predictions[0]) == "interference"
