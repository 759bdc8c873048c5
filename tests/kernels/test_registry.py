"""Kernel registry: Table 1 completeness and metadata."""

import pytest

from repro.errors import ReproError
from repro.kernels import KERNELS, get_kernel

TABLE1_KERNELS = {
    "adi32", "dot", "erle64", "expl", "irr500k", "jacobi", "linpackd", "shal",
}
TABLE1_NAS = {"appbt", "applu", "appsp", "buk", "cgm", "embar", "fftpde", "mgrid"}
TABLE1_SPEC = {
    "apsi", "fpppp", "hydro2d", "su2cor", "swim", "tomcatv", "turb3d", "wave5",
}


class TestCompleteness:
    def test_all_table1_programs_present(self):
        names = set(KERNELS)
        assert TABLE1_KERNELS <= names
        assert TABLE1_NAS <= names
        assert TABLE1_SPEC <= names

    def test_suite_filters(self):
        def suite(name):
            return {k.name for k in KERNELS.values() if k.suite == name}

        assert suite("kernels") == TABLE1_KERNELS
        assert suite("nas") == TABLE1_NAS
        assert suite("spec95") == TABLE1_SPEC

    def test_line_counts_match_table1(self):
        assert get_kernel("adi32").table1_lines == 63
        assert get_kernel("linpackd").table1_lines == 795
        assert get_kernel("appbt").table1_lines == 4441
        assert get_kernel("wave5").table1_lines == 7764

    def test_unknown_kernel_raises(self):
        with pytest.raises(ReproError):
            get_kernel("nosuch")

    def test_fidelity_labels(self):
        for name in TABLE1_KERNELS:
            assert get_kernel(name).fidelity == "model"
        for name in TABLE1_NAS | TABLE1_SPEC:
            assert get_kernel(name).fidelity == "standin"


class TestBuilders:
    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_every_kernel_builds_small(self, name):
        sizes = {
            "adi32": 8, "dot": 64, "erle64": 8, "expl": 12, "irr500k": 64,
            "jacobi": 12, "linpackd": 10, "shal": 12, "appbt": 12,
            "applu": 12, "appsp": 12, "buk": 64, "cgm": 64, "embar": 64,
            "fftpde": 8, "mgrid": 8, "apsi": 12, "fpppp": 6, "hydro2d": 12,
            "su2cor": 12, "swim": 12, "tomcatv": 12, "turb3d": 8,
            "wave5": 64, "matmul": 6, "timestep": 12,
        }
        program = get_kernel(name).program(sizes[name])
        assert program.nests
        assert program.total_refs() > 0

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_default_sizes_build(self, name):
        # Build IR only -- no tracing -- so defaults stay fast.
        program = get_kernel(name).program()
        assert program.total_data_bytes() > 0
