#!/usr/bin/env python
"""Tiling matrix multiply for the L1 vs the L2 cache (Section 5, Fig 13).

For a handful of matrix sizes, selects self-interference-free tiles
targeting the L1 cache and the L2 cache, simulates both tiled loop nests
(exactly the Figure 8 KK/II/J/K/I structure), reports modeled MFLOPS --
and then *executes* the tiled kernel in NumPy to confirm the transformed
code computes the same product.

Run:  python examples/tiling_matmul.py
"""

import numpy as np

from repro import DataLayout, simulate_program, ultrasparc_i
from repro.experiments.common import estimated_cycles, mflops
from repro.experiments.fig13_tiling import tile_for_version
from repro.kernels import matmul
from repro.kernels.numeric import run_matmul_tiled


def modeled_mflops(program, hier):
    result = simulate_program(program, DataLayout.sequential(program), hier, store=None)
    flops = program.total_flops()
    return mflops(flops, estimated_cycles(result, hier, flops))


def main() -> None:
    hier = ultrasparc_i()
    print("tile selection + modeled MFLOPS (UltraSparc-era cycle model)\n")
    print(f"{'N':>4} {'version':>6} {'tile WxH':>10} {'MFLOPS':>8}")
    for n in (128, 256, 352):
        for version in ("Orig", "L1", "L2"):
            shape = tile_for_version(version, n, hier)
            if shape is None:
                prog = matmul.build(n)
                tile = "-"
            else:
                prog = matmul.build_tiled(n, shape.width, shape.height)
                tile = f"{shape.width}x{shape.height}"
            print(
                f"{n:>4} {version:>6} {tile:>10} "
                f"{modeled_mflops(prog, hier):>8.2f}"
            )
        print()

    # Correctness: the Figure 8 loop structure computes the same product.
    n = 96
    shape = tile_for_version("L1", n, hier)
    rng = np.random.default_rng(0)
    a = np.asfortranarray(rng.random((n, n)))
    b = np.asfortranarray(rng.random((n, n)))
    c = np.zeros((n, n), order="F")
    run_matmul_tiled(a, b, c, shape.width, shape.height)
    err = float(np.abs(c - a @ b).max())
    print(f"numeric check at N={n}, tile {shape.width}x{shape.height}: "
          f"max |C - A@B| = {err:.2e}")


if __name__ == "__main__":
    main()
