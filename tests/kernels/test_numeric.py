"""Executable NumPy kernels: pools, views, and semantic ground truth."""

import numpy as np
import pytest

from repro import DataLayout
from repro.kernels import dot as dot_kernel
from repro.kernels import jacobi as jacobi_kernel
from repro.kernels import matmul as matmul_kernel
from repro.kernels.numeric import (
    allocate_pool,
    run_dot,
    run_jacobi,
    run_matmul_tiled,
)
from repro.transforms.pad import pad


class TestPool:
    def test_views_are_column_major_at_bases(self):
        prog = jacobi_kernel.build(16)
        lay = DataLayout.sequential(prog)
        arrays = allocate_pool(prog, lay)
        a = arrays["A"]
        assert a.shape == (16, 16)
        assert a.flags.f_contiguous
        assert not a.flags.owndata  # a view into the pool, not a copy

    def test_padding_moves_views_apart(self):
        prog = dot_kernel.build(1024)
        lay = DataLayout.sequential(prog)
        padded = pad(prog, lay, 16 * 1024, 32)
        v0 = allocate_pool(prog, lay)
        v1 = allocate_pool(prog, padded)
        # Same shapes regardless of layout.
        assert v0["X"].shape == v1["X"].shape == (1024,)

    def test_fill(self):
        prog = dot_kernel.build(64)
        arrays = allocate_pool(prog, DataLayout.sequential(prog), fill=2.5)
        assert float(arrays["X"].sum()) == 64 * 2.5

    def test_writes_through_view_land_in_pool(self):
        prog = jacobi_kernel.build(8)
        lay = DataLayout.sequential(prog)
        arrays = allocate_pool(prog, lay)
        arrays["A"][3, 4] = 7.0
        arrays2 = arrays["A"]  # same view object; check column-major addressing
        assert arrays2[3, 4] == 7.0


class TestKernels:
    def test_dot_value(self):
        prog = dot_kernel.build(100)
        arrays = allocate_pool(prog, DataLayout.sequential(prog), fill=1.0)
        assert run_dot(arrays["X"], arrays["Z"]) == pytest.approx(100.0)

    def test_jacobi_converges_on_constant_field(self):
        prog = jacobi_kernel.build(16)
        arrays = allocate_pool(prog, DataLayout.sequential(prog), fill=3.0)
        resid = run_jacobi(arrays["A"], arrays["B"], steps=2)
        assert resid == pytest.approx(0.0)

    def test_tiled_matmul_matches_untiled(self):
        rng = np.random.default_rng(5)
        n = 24
        a = np.asfortranarray(rng.random((n, n)))
        b = np.asfortranarray(rng.random((n, n)))
        c = np.zeros((n, n), order="F")
        run_matmul_tiled(a, b, c, tile_w=7, tile_h=5)
        np.testing.assert_allclose(c, a @ b, rtol=1e-12)

    def test_tiled_matmul_on_padded_pool(self):
        """End to end: the tiled kernel on pool views under a PAD layout
        computes the same product."""
        prog = matmul_kernel.build(16)
        lay = pad(prog, DataLayout.sequential(prog), 16 * 1024, 32)
        arrays = allocate_pool(prog, lay)
        rng = np.random.default_rng(9)
        arrays["A"][:] = rng.random((16, 16))
        arrays["B"][:] = rng.random((16, 16))
        run_matmul_tiled(arrays["A"], arrays["B"], arrays["C"], 5, 4)
        np.testing.assert_allclose(
            arrays["C"], arrays["A"] @ arrays["B"], rtol=1e-12
        )

