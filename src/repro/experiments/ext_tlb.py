"""Extension: TLB behaviour of the tiling choices (related work, [19]).

Mitchell, Carter, Ferrante and Högstedt -- the one related work the paper
credits with multi-level awareness -- showed that considering cache *and
TLB* together changes the best tile.  A TLB is just another cache level
(page-granular lines, a few dozen entries), so the simulator covers it
for free: this experiment measures TLB miss rates of the Figure 13 tile
choices.

The mechanism: an L1-sized W x H tile of a column-major array touches W
different columns, i.e. up to W distinct pages per tile pass.  Tall,
narrow tiles are TLB-friendly; wide tiles blow the TLB even when they fit
the cache -- the compromise Mitchell et al. formalize.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.config import CacheConfig, HierarchyConfig, ultrasparc_i
from repro.exec.jobs import SimJob
from repro.experiments.common import run_sweep
from repro.experiments.fig13_tiling import TILE_VERSIONS, tile_for_version
from repro.kernels import matmul
from repro.layout.layout import DataLayout
from repro.util.tabulate import format_table

__all__ = ["run", "build_jobs", "TLBResult", "tlb_config"]


def tlb_config(entries: int = 64, page_size: int = 8192) -> CacheConfig:
    """A direct-mapped TLB modeled as a page-granular cache.

    (The UltraSparc I data TLB held 64 entries of 8 KB pages.)
    """
    return CacheConfig(
        size=entries * page_size, line_size=page_size, name="TLB"
    )


@dataclass(frozen=True)
class TLBResult:
    """TLB miss-rate series per tile version."""

    # version -> list of (n, tile_w, tile_h, tlb_miss_rate)
    series: dict[str, list[tuple[int, int, int, float]]]

    def format(self) -> str:
        """Render the TLB miss-rate series."""
        sizes = [row[0] for row in next(iter(self.series.values()))]
        rows = []
        for i, n in enumerate(sizes):
            row = [n]
            for v in self.series:
                row.append(100 * self.series[v][i][3])
            rows.append(row)
        return format_table(
            ["N"] + [f"{v} TLB miss%" for v in self.series],
            rows,
            floatfmt=".3f",
            title="TLB extension: miss rates of the Figure 13 tile choices",
        )


def build_jobs(
    quick: bool = False,
    sizes: list[int] | None = None,
    versions: tuple[str, ...] = ("Orig", "L1", "L2"),
    entries: int = 64,
    page_size: int = 8192,
) -> list[SimJob]:
    """Each (size, tile version) against the one-level TLB "hierarchy".

    A TLB is just another cache level, so the generic simulator (and
    therefore the sweep executor and result store) covers it directly.
    """
    if sizes is None:
        sizes = [128, 192] if quick else [128, 224, 320, 400]
    hier = ultrasparc_i()
    tlb_hier = HierarchyConfig(levels=(tlb_config(entries, page_size),))
    jobs: list[SimJob] = []
    for n in sizes:
        for version in versions:
            shape = tile_for_version(version, n, hier)
            if shape is None:
                program = matmul.build(n)
                w = h = 0
            else:
                program = matmul.build_tiled(n, shape.width, shape.height)
                w, h = shape.width, shape.height
            jobs.append(
                SimJob(
                    program=program,
                    layout=DataLayout.sequential(program),
                    hierarchy=tlb_hier,
                    tag=(n, version, w, h),
                )
            )
    return jobs


def run(
    quick: bool = False,
    sizes: list[int] | None = None,
    versions: tuple[str, ...] = ("Orig", "L1", "L2"),
    entries: int = 64,
    page_size: int = 8192,
    workers: int | None = None,
    store=None,
    executor=None,
) -> TLBResult:
    jobs = build_jobs(quick, sizes, versions, entries, page_size)
    sims = run_sweep(jobs, executor=executor, workers=workers, store=store)
    series: dict[str, list[tuple[int, int, int, float]]] = {v: [] for v in versions}
    for job, result in zip(jobs, sims):
        n, version, w, h = job.tag
        series[version].append((n, w, h, result.miss_rate("TLB")))
    return TLBResult(series=series)
