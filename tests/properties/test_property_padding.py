"""Property tests of the padding transformations (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DataLayout, ProgramBuilder, ultrasparc_i
from repro.layout.conflicts import program_severe_conflicts
from repro.transforms.grouppad import grouppad
from repro.transforms.maxpad import l2maxpad
from repro.transforms.pad import multilvl_pad, pad

HIER = ultrasparc_i()
L1, LINE = HIER.l1.size, HIER.l1.line_size


@st.composite
def vector_program(draw):
    """2-4 vectors of sizes biased toward cache-resonant values."""
    narrays = draw(st.integers(min_value=2, max_value=4))
    b = ProgramBuilder("vecs")
    handles = []
    for k in range(narrays):
        resonant = draw(st.booleans())
        if resonant:
            n = draw(st.sampled_from([2048, 4096, 6144]))  # multiples of 16K bytes
        else:
            n = draw(st.integers(min_value=100, max_value=5000))
        handles.append(b.array(f"V{k}", (n,)))
    (i,) = b.vars("i")
    shortest = min(h.decl.shape[0] for h in handles)
    b.nest(
        [b.loop(i, 1, shortest)],
        [b.use(reads=[h[i] for h in handles], flops=1)],
    )
    return b.build()


@st.composite
def stencil_program(draw):
    narrays = draw(st.integers(min_value=2, max_value=4))
    n = draw(st.sampled_from([256, 512, 896, 1024, 2048]))
    b = ProgramBuilder("st")
    handles = [b.array(f"A{k}", (n, 8)) for k in range(narrays)]
    i, j = b.vars("i", "j")
    stmts = [
        b.use(reads=[h[i, j], h[i, j + 1]], flops=1) for h in handles
    ]
    b.nest([b.loop(j, 1, 7), b.loop(i, 1, n)], stmts)
    return b.build()


class TestPadPostconditions:
    @given(prog=vector_program())
    @settings(max_examples=25, deadline=None)
    def test_pad_clears_l1_conflicts(self, prog):
        out = pad(prog, DataLayout.sequential(prog), L1, LINE)
        assert program_severe_conflicts(prog, out, L1, LINE).is_clean

    @given(prog=vector_program())
    @settings(max_examples=20, deadline=None)
    def test_multilvlpad_clears_all_levels(self, prog):
        out = multilvl_pad(prog, DataLayout.sequential(prog), HIER)
        for cfg in HIER:
            assert program_severe_conflicts(
                prog, out, cfg.size, cfg.line_size
            ).is_clean

    @given(prog=vector_program())
    @settings(max_examples=20, deadline=None)
    def test_pad_never_shrinks_layout(self, prog):
        seq = DataLayout.sequential(prog)
        out = pad(prog, seq, L1, LINE)
        assert out.total_bytes >= seq.total_bytes
        assert out.order == seq.order
        assert out.sizes == seq.sizes


class TestGroupPadPostconditions:
    @given(prog=stencil_program())
    @settings(max_examples=10, deadline=None)
    def test_grouppad_avoids_conflicts(self, prog):
        out = grouppad(prog, DataLayout.sequential(prog), L1, LINE)
        assert program_severe_conflicts(prog, out, L1, LINE).is_clean

    @given(prog=stencil_program())
    @settings(max_examples=8, deadline=None)
    def test_l2maxpad_preserves_l1_residues(self, prog):
        gp = grouppad(prog, DataLayout.sequential(prog), L1, LINE)
        out = l2maxpad(prog, gp, HIER)
        for name in (a.name for a in prog.arrays):
            assert (out.base(name) - gp.base(name)) % L1 == 0
