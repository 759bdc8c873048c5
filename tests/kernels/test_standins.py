"""Stand-in design properties: the conflict structure each one encodes.

DESIGN.md's substitution argument rests on stand-ins reproducing the
right *array-conflict structure*: resonant sizes for the programs Figure
9 shows improving, non-resonant for the rest, and genuine group-reuse
arcs for the Figure 10 programs.  These tests pin that design so a
casual size change cannot silently defeat the experiments.
"""

import pytest

from repro import DataLayout, ultrasparc_i
from repro.analysis.groups import reuse_arcs
from repro.kernels import standins as st
from repro.layout.conflicts import program_severe_conflicts

HIER = ultrasparc_i()

RESONANT = {
    "applu": st.build_applu,
    "appsp": st.build_appsp,
    "su2cor": st.build_su2cor,
    "hydro2d": st.build_hydro2d,
    "fftpde": st.build_fftpde,
    "mgrid": st.build_mgrid,
    "turb3d": st.build_turb3d,
}
NON_RESONANT = {
    "buk": st.build_buk,
    "cgm": st.build_cgm,
    "embar": st.build_embar,
    "apsi": st.build_apsi,
    "fpppp": st.build_fpppp,
    "wave5": st.build_wave5,
}


class TestResonanceDesign:
    @pytest.mark.parametrize("name", sorted(RESONANT))
    def test_resonant_standins_have_fixable_conflicts(self, name):
        prog = RESONANT[name]()
        lay = DataLayout.sequential(prog)
        report = program_severe_conflicts(
            prog, lay, HIER.l1.size, HIER.l1.line_size
        )
        assert report.count > 0, f"{name} should start with severe conflicts"
        assert report.fixable, f"{name}'s conflicts should be PAD-fixable"

    @pytest.mark.parametrize("name", sorted(NON_RESONANT))
    def test_non_resonant_standins_clean(self, name):
        prog = NON_RESONANT[name]()
        lay = DataLayout.sequential(prog)
        report = program_severe_conflicts(
            prog, lay, HIER.l1.size, HIER.l1.line_size
        )
        assert report.is_clean, f"{name} should have nothing for PAD to do"


class TestGroupReuseDesign:
    @pytest.mark.parametrize("builder", [st.build_swim, st.build_tomcatv])
    def test_fig10_programs_carry_column_arcs(self, builder):
        prog = builder()
        line = HIER.l1.line_size
        column_arcs = sum(
            1
            for nest in prog.nests
            for arc in reuse_arcs(prog, nest)
            if arc.distance_bytes >= line
        )
        assert column_arcs >= 2  # GROUPPAD has real work to do

    def test_swim_is_shal_structure_at_spec_size(self):
        prog = st.build_swim()
        assert prog.name == "swim"
        assert prog.decl("U").shape == (513, 513)
        assert len(prog.arrays) == 13

    def test_tomcatv_has_mesh_arrays(self):
        prog = st.build_tomcatv()
        assert {"X", "Y", "RX", "RY", "AA", "DD"} <= {a.name for a in prog.arrays}


class TestStructural:
    def test_appbt_vs_applu_differ_only_in_resonance(self):
        a = st.build_appbt()
        b = st.build_applu()
        assert len(a.arrays) == len(b.arrays) == 5
        assert len(a.nests) == len(b.nests) == 3

    def test_buk_uses_integer_arrays(self):
        prog = st.build_buk()
        assert prog.decl("KEY").element_size == 4
