"""Property tests for the random affine-program generator.

The generator's whole contract is here: every seed yields a program that
(a) passes the validator with zero errors, (b) is byte-deterministic in
the seed, and (c) lowers to a finite, in-bounds address trace on which
the vectorized generator and the bounds-checking interpreter agree.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.fuzz.generator import FuzzConfig, program_stream, random_program
from repro.ir.validate import check_program, validate_program
from repro.layout.layout import DataLayout
from repro.trace.generator import generate_trace
from repro.trace.interpreter import interpret_program

seeds = st.integers(min_value=0, max_value=10**6)


class TestValidity:
    @given(seed=seeds)
    @settings(max_examples=80, deadline=None)
    def test_every_program_validates_with_zero_errors(self, seed):
        program = random_program(seed)
        check_program(program)  # raises on any bounds error
        findings = validate_program(program)
        assert not [f for f in findings if f.severity == "error"]

    @given(seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_no_dead_or_write_only_arrays(self, seed):
        """Every array is referenced and every written array is read
        somewhere (the only tolerated warning is a never-executing
        triangular nest, which is a property of the bounds, not of the
        array pool)."""
        findings = validate_program(random_program(seed))
        texts = [f.message for f in findings if f.severity == "warning"]
        assert not [t for t in texts if "array" in t], texts

    @given(seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_refs_budget_respected(self, seed):
        cfg = FuzzConfig()
        assert random_program(seed, cfg).total_refs() <= cfg.max_refs

    @given(seed=seeds)
    @settings(max_examples=20, deadline=None)
    def test_tight_budget_still_valid(self, seed):
        cfg = FuzzConfig(max_refs=100)
        program = random_program(seed, cfg)
        check_program(program)
        assert program.total_refs() <= cfg.max_refs


class TestDeterminism:
    @given(seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_same_seed_same_program(self, seed):
        assert random_program(seed) == random_program(seed)

    def test_different_seeds_differ_somewhere(self):
        programs = {repr(random_program(s)) for s in range(30)}
        assert len(programs) > 25  # collisions allowed, sameness is a bug

    def test_stream_seeds_are_offsets(self):
        pairs = list(program_stream(100, 5))
        assert [s for s, _ in pairs] == [100, 101, 102, 103, 104]
        for case_seed, program in pairs:
            assert program == random_program(case_seed)
            assert program.name == f"fuzz-{case_seed}"


class TestTraces:
    @given(seed=seeds)
    @example(seed=3486)  # first draws of these seeds make no reference
    @example(seed=1831)
    @settings(max_examples=30, deadline=None)
    def test_trace_finite_in_bounds_and_interpreter_agrees(self, seed):
        program = random_program(seed)
        layout = DataLayout.sequential(program)
        trace = generate_trace(program, layout)
        assert trace.size == program.total_refs()
        assert trace.size > 0
        # check_bounds=True raises if any address leaves its array.
        oracle = interpret_program(program, layout, check_bounds=True)
        np.testing.assert_array_equal(trace, oracle)
        assert int(trace.min()) >= 0


class TestConfig:
    def test_rejects_nonpositive_bounds(self):
        with pytest.raises(ReproError):
            FuzzConfig(max_nests=0)
        with pytest.raises(ReproError):
            FuzzConfig(max_refs=0)
        with pytest.raises(ReproError):
            FuzzConfig(max_offset=-1)
        with pytest.raises(ReproError):
            FuzzConfig(element_sizes=())

    def test_stream_rejects_bad_count(self):
        with pytest.raises(ReproError):
            list(program_stream(0, 0))
