"""Tests for the divergence-preserving shrinker."""

import pytest

from repro.errors import ReproError
from repro.fuzz.generator import random_program
from repro.fuzz.harness import FUZZ_HIERARCHIES, diff_case
from repro.fuzz.shrink import shrink_program, tighten_arrays
from repro.ir.builder import ProgramBuilder
from repro.ir.validate import check_program


def two_nest_program():
    b = ProgramBuilder("two")
    A = b.array("A", (40,))
    B = b.array("B", (40,))
    i, j = b.vars("i", "j")
    b.nest([b.loop(i, 1, 20)], [b.assign(A[i], reads=[B[i]])])
    b.nest([b.loop(j, 1, 20)], [b.assign(B[j], reads=[A[j]])])
    return b.build()


class TestTightenArrays:
    def test_drops_unreferenced_and_shrinks_extents(self):
        b = ProgramBuilder("loose")
        A = b.array("A", (100, 100))
        b.array("B", (50,))  # never referenced
        (i,) = b.vars("i")
        b.nest([b.loop(i, 1, 10)], [b.assign(A[i, 3], reads=[A[i, 1]])])
        tight = tighten_arrays(b.build())
        assert [a.name for a in tight.arrays] == ["A"]
        assert tight.decl("A").shape == (10, 3)
        check_program(tight)

    def test_fuzzed_programs_already_tight(self):
        for seed in range(10):
            program = random_program(seed)
            tight = tighten_arrays(program)
            assert [a.shape for a in tight.arrays] == [
                a.shape for a in program.arrays
            ]


class TestShrinkProgram:
    def test_rejects_non_divergent_input(self):
        with pytest.raises(ReproError):
            shrink_program(two_nest_program(), lambda p: False)

    def test_shrinks_to_predicate_boundary(self):
        """A predicate that only needs one nest should lose the other."""
        program = two_nest_program()

        def touches_a(p):
            return any(r.array == "A" for n in p.nests for r in n.refs)

        small = shrink_program(program, touches_a)
        assert touches_a(small)
        assert len(small.nests) == 1
        assert small.total_refs() < program.total_refs()
        check_program(small)

    def test_shrinks_trip_counts(self):
        program = two_nest_program()

        def still_big(p):
            return p.total_refs() >= 4

        small = shrink_program(program, still_big)
        assert 4 <= small.total_refs() <= 8
        check_program(small)

    def test_result_is_deterministic(self):
        program = two_nest_program()
        pred = lambda p: any(r.array == "B" for n in p.nests for r in n.refs)
        assert shrink_program(program, pred) == shrink_program(program, pred)

    def test_crashing_predicate_counts_as_no_shrink(self):
        program = two_nest_program()
        calls = {"n": 0}

        def flaky(p):
            calls["n"] += 1
            if calls["n"] == 1:
                return True  # the input itself diverges
            raise RuntimeError("oracle exploded")

        # Every candidate crashes the predicate, so nothing is accepted
        # beyond the initial tightening.
        small = shrink_program(program, flaky)
        check_program(small)

    def test_preserves_real_model_divergence(self):
        """End to end on a real campaign finding: shrink a model blind
        spot and keep it blind."""
        seed, hname = 9, "dm"
        program = random_program(seed)
        hier = FUZZ_HIERARCHIES[hname]

        def still_blind(p):
            rep = diff_case(seed, p, hname, hier)
            return any(d.kind == "model" for d in rep.divergences)

        assert still_blind(program)
        small = shrink_program(program, still_blind)
        assert still_blind(small)
        assert small.total_refs() <= program.total_refs()
        assert len(small.nests) <= len(program.nests)
        check_program(small)
