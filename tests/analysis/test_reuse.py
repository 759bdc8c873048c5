"""Wolf & Lam self reuse and the permutation cost model."""

from repro import ProgramBuilder
from repro.analysis.reuse import innermost_locality_score


def fig1_program():
    """The paper's Figure 1 original: B(j) = A(j,i), loops j outer, i inner."""
    b = ProgramBuilder("fig1")
    A = b.array("A", (100, 50))
    B = b.array("B", (100,))
    i, j = b.vars("i", "j")
    b.nest(
        [b.loop(j, 1, 100), b.loop(i, 1, 50)],
        [b.assign(B[j], reads=[A[j, i]], flops=0)],
    )
    return b.build()


class TestClassification:
    def test_fig1_reuse_kinds(self):
        """A(j,i) is spatial in j (8 B of a 32 B line) and has no reuse in
        i (800 B stride); B(j) is temporal in i and spatial in j."""
        prog = fig1_program()
        nest = prog.nests[0]
        assert innermost_locality_score(prog, nest, "j", 32) == 0.75 + 0.75
        assert innermost_locality_score(prog, nest, "i", 32) == 0.0 + 1.0

    def test_negative_stride_is_spatial_too(self):
        b = ProgramBuilder("rev")
        A = b.array("A", (64,))
        (i,) = b.vars("i")
        b.nest([b.loop(i, 64, 1, step=-1)], [b.use(reads=[A[i]])])
        prog = b.build()
        assert innermost_locality_score(prog, prog.nests[0], "i", 32) == 0.75


class TestPermutationModel:
    def test_fig1_prefers_j_innermost(self):
        """Figure 1's loop permutation: making j innermost wins both
        temporal reuse of B and spatial reuse of A."""
        prog = fig1_program()
        nest = prog.nests[0]
        score_j = innermost_locality_score(prog, nest, "j", 32)
        score_i = innermost_locality_score(prog, nest, "i", 32)
        assert score_j > score_i

    def test_score_independent_of_cache_size(self):
        """Section 2.1: the ranking depends on the line size only -- there
        is no cache-size parameter to pass at all."""
        prog = fig1_program()
        nest = prog.nests[0]
        for line in (32, 64, 128):
            assert innermost_locality_score(
                prog, nest, "j", line
            ) > innermost_locality_score(prog, nest, "i", line)
