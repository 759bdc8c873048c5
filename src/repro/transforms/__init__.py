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
* :func:`fuse_nests` -- loop fusion;
* :func:`strip_mine`, :func:`tile_nest` -- tiling;
* :mod:`repro.transforms.tilesize` -- self-interference-free tile-size
  selection (euc-style), L1/kxL1/L2 targeting.
"""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.transforms.pad": ("pad", "multilvl_pad", "pad_explicit_levels"),
    "repro.transforms.grouppad": ("grouppad", "grouppad_recursive"),
    "repro.transforms.maxpad": ("maxpad", "l2maxpad"),
    "repro.transforms.intrapad": ("intra_pad",),
    "repro.transforms.transpose": ("transpose_array",),
    "repro.transforms.permute": ("permute_nest", "memory_order"),
    "repro.transforms.fusion": ("can_fuse", "fuse_nests"),
    "repro.transforms.timetile": ("time_tile", "block_columns_for_cache"),
    "repro.transforms.tiling": ("strip_mine", "tile_nest"),
    "repro.transforms.tilesize": (
        "TileShape", "max_conflict_free_height", "select_tile",
    ),
})

# Three exports share a name with their module.  Importing a submodule binds
# it on the package, so these are bound eagerly, after their modules: the
# name then stays the function however the module is imported later.
from repro.transforms.pad import pad  # noqa: E402
from repro.transforms.grouppad import grouppad  # noqa: E402
from repro.transforms.maxpad import maxpad  # noqa: E402
