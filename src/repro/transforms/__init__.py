"""Program transformations: the paper's optimization algorithms.

Data-layout transformations (Section 3):

* :func:`pad` -- PAD: eliminate severe conflict misses on one cache level;
* :func:`multilvl_pad` -- MULTILVLPAD: PAD against the virtual
  (S1, Lmax) cache, covering every level by modular arithmetic;
* :func:`pad_explicit_levels` -- the "generalizes easily" variant that
  tests every level explicitly;
* :func:`grouppad` -- GROUPPAD: choose base positions maximizing exploited
  group reuse on the L1 cache;
* :func:`grouppad_recursive` -- the multi-level recursion (pads at level
  k restricted to multiples of the level-(k-1) cache size);
* :func:`maxpad` / :func:`l2maxpad` -- maximal separation on one cache /
  on the L2 cache with S1-multiple pads that preserve the L1 layout;
* :func:`intra_pad` -- intra-variable (column) padding;
* :func:`transpose_array` -- array transpose (Figure 1).

Loop transformations (Sections 2, 4, 5):

* :func:`permute_nest` / :func:`memory_order` -- loop permutation;
* :func:`fuse_nests` / :func:`fuse_all` -- loop fusion;
* :func:`strip_mine`, :func:`tile_nest` -- tiling;
* :mod:`repro.transforms.tilesize` -- self-interference-free tile-size
  selection (euc-style), L1/kxL1/L2 targeting.
"""

from repro.transforms.pad import pad, multilvl_pad, pad_explicit_levels
from repro.transforms.grouppad import grouppad, grouppad_recursive
from repro.transforms.maxpad import maxpad, l2maxpad
from repro.transforms.intrapad import intra_pad
from repro.transforms.transpose import transpose_array
from repro.transforms.permute import memory_order, permute_nest
from repro.transforms.fusion import can_fuse, fuse_all, fuse_nests
from repro.transforms.timetile import block_columns_for_cache, time_tile
from repro.transforms.tiling import strip_mine, tile_nest
from repro.transforms.tilesize import (
    TileShape,
    max_conflict_free_height,
    select_tile,
)

__all__ = [
    "pad",
    "multilvl_pad",
    "pad_explicit_levels",
    "grouppad",
    "grouppad_recursive",
    "maxpad",
    "l2maxpad",
    "intra_pad",
    "transpose_array",
    "permute_nest",
    "memory_order",
    "can_fuse",
    "fuse_nests",
    "fuse_all",
    "time_tile",
    "block_columns_for_cache",
    "strip_mine",
    "tile_nest",
    "TileShape",
    "max_conflict_free_height",
    "select_tile",
]
