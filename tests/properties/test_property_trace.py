"""Property tests: trace generator vs interpreter on random programs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DataLayout, ProgramBuilder
from repro.trace.generator import generate_trace, nest_trace_chunks
from repro.trace.interpreter import interpret_program


@st.composite
def random_program(draw):
    """A random 2- or 3-deep nest over 1-3 arrays with small offsets.

    The middle loop may run backwards (negative step) and the innermost
    loop may be triangular: bounded above or below by the middle loop's
    index, so the generator must walk the outer loops in Python.
    """
    n = draw(st.integers(min_value=4, max_value=12))
    m = draw(st.integers(min_value=4, max_value=12))
    depth = draw(st.sampled_from([2, 3]))
    p = draw(st.integers(min_value=2, max_value=4))
    narrays = draw(st.integers(min_value=1, max_value=3))
    b = ProgramBuilder("rand")
    shape = (n + 2, m + 2) if depth == 2 else (n + 2, m + 2, p + 2)
    handles = [b.array(f"A{k}", shape) for k in range(narrays)]
    i, j, k = b.vars("i", "j", "k")
    stmts = []
    nstmts = draw(st.integers(min_value=1, max_value=3))
    for _ in range(nstmts):
        reads = []
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            h = handles[draw(st.integers(0, narrays - 1))]
            index = [i + 1 + draw(st.integers(-1, 1)), j + 1 + draw(st.integers(-1, 1))]
            if depth == 3:
                index.append(k + 1 + draw(st.integers(-1, 1)))
            reads.append(h[tuple(index)])
        stmts.append(b.use(reads=reads, flops=1))
    step_j = draw(st.sampled_from([1, 2, -1, -2]))
    loop_j = b.loop(j, 1, m, step=step_j) if step_j > 0 else b.loop(j, m, 1, step=step_j)
    shape_i = draw(st.sampled_from(["rectangular", "below-j", "above-j"]))
    if shape_i == "below-j":
        loop_i = b.loop(i, 1, j)
    elif shape_i == "above-j":
        loop_i = b.loop(i, j, n)
    else:
        loop_i = b.loop(i, 1, n)
    loops = [loop_j, loop_i]
    if depth == 3:
        loops.insert(0, b.loop(k, 1, p))
    b.nest(loops, stmts)
    return b.build()


class TestGeneratorEquivalence:
    @given(prog=random_program(), pad=st.integers(0, 256))
    @settings(max_examples=50, deadline=None)
    def test_generator_equals_interpreter(self, prog, pad):
        layout = DataLayout.sequential(prog)
        if pad and len(layout.order) > 1:
            layout = layout.add_pad(layout.order[-1], pad)
        np.testing.assert_array_equal(
            generate_trace(prog, layout),
            interpret_program(prog, layout, check_bounds=False),
        )

    @given(prog=random_program(), chunk=st.integers(1, 200))
    @settings(max_examples=50, deadline=None)
    def test_chunks_concatenate_to_trace_within_budget(self, prog, chunk):
        """Block emission and coalescing keep the trace byte-identical,
        and every chunk fits the budget whenever one iteration does."""
        layout = DataLayout.sequential(prog)
        nest = prog.nests[0]
        chunks = list(nest_trace_chunks(prog, layout, nest, max_chunk_refs=chunk))
        full = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
        np.testing.assert_array_equal(
            full, interpret_program(prog, layout, check_bounds=False)
        )
        if nest.refs_per_iteration <= chunk:
            assert all(c.size <= chunk for c in chunks)

    @given(prog=random_program(), chunk=st.integers(1, 64))
    @settings(max_examples=30, deadline=None)
    def test_chunking_invariance(self, prog, chunk):
        layout = DataLayout.sequential(prog)
        full = generate_trace(prog, layout)
        chunked = generate_trace(prog, layout, max_chunk_refs=chunk)
        np.testing.assert_array_equal(full, chunked)

    @given(prog=random_program())
    @settings(max_examples=30, deadline=None)
    def test_ref_count_matches_static_count(self, prog):
        layout = DataLayout.sequential(prog)
        assert generate_trace(prog, layout).size == prog.total_refs()
