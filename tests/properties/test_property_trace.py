"""Property tests: trace generator vs interpreter on random programs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DataLayout, ProgramBuilder
from repro.ir.affine import AffineExpr, const, var
from repro.ir.loops import Loop
from repro.trace.generator import generate_trace, program_trace_chunks
from repro.trace.interpreter import interpret_nest, interpret_program

VARS = ("k", "j", "i")  # outermost first; a depth-d nest uses the last d


@st.composite
def random_loop(draw, name: str, outer: tuple[str, ...], extent: int) -> Loop:
    """A loop over about ``1..extent`` whose bounds may ride an outer index.

    ``tri`` bounds one side by an outer index plus a shift (so some rows
    may run zero trips), in either direction; ``minmax`` is a tile loop's
    ``max(v, 2) .. min(v + width, extent)``, as tiling emits it.
    """
    kind = draw(st.sampled_from(("rect", "tri", "minmax") if outer else ("rect",)))
    if kind == "minmax":
        v = var(draw(st.sampled_from(outer)))
        width = draw(st.integers(0, 3))
        return Loop(
            name, v, v + width, draw(st.sampled_from([1, 2])),
            extra_uppers=(const(extent),), extra_lowers=(const(2),),
        )
    lo, hi = AffineExpr.wrap(1), AffineExpr.wrap(extent)
    if kind == "tri":
        bound = var(draw(st.sampled_from(outer))) + draw(st.integers(-1, 2))
        if draw(st.booleans()):
            lo = bound
        else:
            hi = bound
    step = draw(st.sampled_from([1, 2, -1, -2]))
    return Loop(name, lo, hi, step) if step > 0 else Loop(name, hi, lo, step)


@st.composite
def random_nest_loops(draw, depth: int, extents: tuple[int, ...]) -> list[Loop]:
    names = VARS[-depth:]
    if depth == 3 and draw(st.booleans()):
        # LU's trailing update: both inner loops ride the outermost index,
        # ``do k; do j = k+c, m; do i = k+c, n``.
        c = draw(st.integers(0, 1))
        k = var("k")
        return [
            Loop("k", const(1), const(extents[0])),
            Loop("j", k + c, const(extents[1])),
            Loop("i", k + c, const(extents[2])),
        ]
    return [
        draw(random_loop(name, names[:level], extents[level]))
        for level, name in enumerate(names)
    ]


@st.composite
def random_program(draw):
    """One or two nests, 1-3 deep, over 1-3 rank-3 arrays with small offsets.

    Every loop may run backwards and every inner loop may be triangular
    (bounded by an outer index, in either direction, possibly with zero
    trips in some rows) or a tile loop with ``min``/``max`` bounds; 3-deep
    nests may also take LU's shape, whose two inner loops ride the
    outermost index.
    """
    extents = tuple(draw(st.integers(min_value=3, max_value=10)) for _ in range(3))
    narrays = draw(st.integers(min_value=1, max_value=3))
    b = ProgramBuilder("rand")
    handles = [b.array(f"A{a}", tuple(e + 4 for e in extents)) for a in range(narrays)]
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        depth = draw(st.integers(min_value=1, max_value=3))
        names = VARS[-depth:]
        stmts = []
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            reads = []
            for _ in range(draw(st.integers(min_value=1, max_value=3))):
                h = handles[draw(st.integers(0, narrays - 1))]
                index = []
                for _ in range(3):
                    name = draw(st.sampled_from(names + ("",)))
                    offset = 2 + draw(st.integers(-1, 1))
                    coeff = draw(st.sampled_from([1, 1, 2, -1]))
                    index.append(coeff * var(name) + offset if name else const(offset))
                reads.append(h[tuple(index)])
            stmts.append(b.use(reads=reads, flops=1))
        b.nest(draw(random_nest_loops(depth, extents[-depth:])), stmts)
    return b.build()


def _concrete_trip(lp, env):
    """``(first value, trip count)`` of one loop at concrete outer indices,
    from the same ``range`` the sequential interpreter walks."""
    lo = lp.effective_lower(env)
    hi = lp.effective_upper(env)
    return lo, len(range(lo, hi + (1 if lp.step > 0 else -1), lp.step))


def _walk_rows(nest, level, env):
    """Every combination of loop values above ``level``, walked in Python
    one loop value at a time -- the reference row enumeration."""
    if level == 0:
        return [env]
    out = []
    for parent in _walk_rows(nest, level - 1, env):
        lp = nest.loops[level - 1]
        first, count = _concrete_trip(lp, parent)
        out += [{**parent, lp.var: first + lp.step * j} for j in range(count)]
    return out


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

    @given(prog=random_program(), chunk=st.integers(1, 400))
    @settings(max_examples=50, deadline=None)
    def test_chunks_concatenate_to_trace_within_budget(self, prog, chunk):
        """Big-row blocks, small-row batches and coalescing keep every
        nest's trace byte-identical, and every chunk fits the budget
        whenever one iteration does -- budgets below a single row's
        references included."""
        layout = DataLayout.sequential(prog)
        for nest in prog.nests:
            one = prog.with_nests([nest])
            chunks = list(program_trace_chunks(one, layout, max_chunk_refs=chunk))
            full = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
            np.testing.assert_array_equal(
                full, interpret_nest(prog, layout, nest, check_bounds=False)
            )
            assert all(c.size <= max(chunk, nest.refs_per_iteration) for c in chunks)

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

    @given(prog=random_program())
    @settings(max_examples=50, deadline=None)
    def test_row_trips_match_concrete_trip(self, prog):
        """The vectorized row enumeration walks exactly the values the
        interpreter's per-loop ``range`` gives, row by row."""
        for nest in prog.nests:
            rows = nest.rows()
            p = rows.level
            assert nest.concrete_from(p)
            assert not any(nest.concrete_from(level) for level in range(p))
            expected = _walk_rows(nest, p, {})
            outer = nest.loops[:p]
            assert len(rows.values) == p
            for lp, values in zip(outer, rows.values):
                assert values.tolist() == [env[lp.var] for env in expected]
            for lp, firsts, counts in zip(nest.loops[p:], rows.firsts, rows.counts):
                trips = [_concrete_trip(lp, env) for env in expected]
                assert firsts.tolist() == [first for first, count in trips]
                assert counts.tolist() == [count for first, count in trips]
            assert nest.iterations() * nest.refs_per_iteration == (
                interpret_nest(prog, DataLayout.sequential(prog), nest,
                               check_bounds=False).size
            )
