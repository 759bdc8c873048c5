"""Differential property tests on fuzzed program traces.

The hand-written property suites (``tests/properties``) drive the cache
simulators with synthetic integer lists; these drive them with *real*
address traces lowered from fuzzed programs -- strided, multi-nest,
column-major streams with genuine reuse structure -- and assert the same
exact contracts:

* the vectorized k-way LRU path equals the sequential
  :class:`SequentialAssocCache` oracle per reference,
* ``k=1`` LRU equals the direct-mapped simulator,
* the full differential harness (:func:`repro.fuzz.diff_case`) finds no
  trace or simulation divergence on any seed -- those two kinds are hard
  bugs by definition -- and records a wrong exact claim of the predictor
  as an ``error``.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.assoc import SequentialAssocCache, miss_mask_assoc
from repro.cache.assoc_vec import miss_mask_assoc_vec
from repro.cache.direct import miss_mask_direct
from repro.cache.config import CacheConfig, HierarchyConfig
from repro.fuzz.generator import FuzzConfig, random_program
from repro.fuzz.harness import FUZZ_HIERARCHIES, diff_case, oracle_simulate
from repro.ir.builder import ProgramBuilder
from repro.layout.layout import DataLayout
from repro.trace.generator import generate_trace

seeds = st.integers(min_value=0, max_value=10**6)
geometries = st.sampled_from([(512, 32, 1), (1024, 32, 2), (2048, 64, 4),
                              (1024, 16, 8), (768, 32, 3)])

# Small programs keep the pure-Python oracles fast under hypothesis.
CFG = FuzzConfig(max_refs=600)


def fuzz_trace(seed: int) -> np.ndarray:
    program = random_program(seed, CFG)
    return generate_trace(program, DataLayout.sequential(program))


class TestVectorizedVsOracleOnFuzzedTraces:
    @given(seed=seeds, geom=geometries)
    @settings(max_examples=50, deadline=None)
    def test_assoc_vec_equals_sequential_oracle(self, seed, geom):
        size, line, k = geom
        trace = fuzz_trace(seed)
        vec_mask = miss_mask_assoc_vec(trace, size, line, k)
        oracle = SequentialAssocCache(size, line, k)
        oracle_mask = oracle.feed(trace)
        np.testing.assert_array_equal(vec_mask, oracle_mask)
        assert oracle.accesses == trace.size
        assert oracle.misses == int(vec_mask.sum())

    @given(seed=seeds, geom=geometries)
    @settings(max_examples=30, deadline=None)
    def test_assoc_scalar_agrees_too(self, seed, geom):
        size, line, k = geom
        trace = fuzz_trace(seed)
        np.testing.assert_array_equal(
            miss_mask_assoc(trace, size, line, k),
            miss_mask_assoc_vec(trace, size, line, k),
        )

    @given(seed=seeds, geom=geometries)
    @settings(max_examples=50, deadline=None)
    def test_one_way_lru_is_direct_mapped(self, seed, geom):
        size, line, _ = geom
        trace = fuzz_trace(seed)
        np.testing.assert_array_equal(
            miss_mask_assoc_vec(trace, size, line, 1),
            miss_mask_direct(trace, size, line),
        )


class TestHarnessHardContracts:
    @given(seed=seeds)
    @settings(max_examples=15, deadline=None)
    def test_no_trace_or_sim_divergence_on_any_seed(self, seed):
        program = random_program(seed, CFG)
        for name, hier in FUZZ_HIERARCHIES.items():
            report = diff_case(seed, program, name, hier)
            hard = [d for d in report.divergences
                    if d.kind in ("trace", "sim", "error")]
            assert not hard, (
                f"hard divergence on fuzzed program: "
                f"{[str(d) for d in hard]}  [{report.repro()}]"
            )

    def test_oracle_simulate_filters_like_hierarchy(self):
        """Level 2 of the oracle sees exactly level 1's misses."""
        trace = fuzz_trace(3)
        result = oracle_simulate(trace, FUZZ_HIERARCHIES["2way"])
        l1, l2 = result.levels
        assert l1.accesses == trace.size
        assert l2.accesses == l1.misses
        assert result.total_refs == trace.size

    def test_wrong_exact_claim_is_an_error_divergence(self, monkeypatch):
        """A level the predictor flags exact must match the simulator; a
        predictor claiming a wrong exact count trips the hard contract."""
        import repro.model

        b = ProgramBuilder("stream")
        A = b.array("A", (64,))
        (i,) = b.vars("i")
        b.nest([b.loop(i, 1, 64)], [b.use(reads=[A[i]])])
        program = b.build()
        roomy = HierarchyConfig(levels=(
            CacheConfig(size=16 * 1024, line_size=32, name="L1"),
            CacheConfig(size=64 * 1024, line_size=64, name="L2"),
        ))
        clean = diff_case(0, program, "roomy", roomy)
        assert not clean.divergences

        honest = repro.model.predict_job

        def wrong(job):
            stats = honest(job)
            l1 = stats.predictions[0]
            assert l1.exact
            bad = dataclasses.replace(l1, misses=l1.misses + 1)
            return dataclasses.replace(
                stats, predictions=(bad,) + stats.predictions[1:]
            )

        monkeypatch.setattr(repro.model, "predict_job", wrong)
        report = diff_case(0, program, "roomy", roomy)
        errors = [d for d in report.divergences if d.kind == "error"]
        # L2 is exact too, and its accesses are L1's (wrong) misses.
        assert [d.level for d in errors] == ["L1", "L2"]
        assert all("exact claim" in d.detail for d in errors)
