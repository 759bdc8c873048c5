"""Trace-driven multi-level cache simulator.

This package is the reproduction's stand-in for the cache simulator used in
Section 6.1 of the paper.  It simulates an inclusive hierarchy of
direct-mapped or set-associative caches over an address trace: the L1 cache
sees every reference, and each lower level sees only the miss stream of the
level above it.  Miss rates are reported relative to the *total* number of
references, matching the paper's normalization.

Each cache kind has one fully vectorized core that carries state across
trace chunks: :class:`~repro.cache.streaming.StreamingDirectCache`
(a sort-based previous-occurrence comparison) and
:class:`~repro.cache.assoc_vec.StreamingAssocCache` (a set-grouped
stack-distance classification), so full-program traces of tens of
millions of references simulate in seconds either way.
:class:`StreamingHierarchy` chains them into the one hierarchy, fed
only line chunks (:class:`~repro.cache.config.LineChunk`): line numbers
the trace generator cut for the hierarchy, without the L1 hits that
cannot change cache state, or an address trace converted by
``LineChunk.from_addresses(trace, config)`` with every access kept.
A sequential one-access-at-a-time LRU model (:mod:`repro.cache.assoc`)
is kept as the ground-truth oracle the vectorized paths are
property-tested against.  See ``docs/simulators.md`` for the three
families and when each is used.
"""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.cache.config": (
        "CacheConfig", "HierarchyConfig", "ultrasparc_i", "alpha_21164",
    ),
    "repro.cache.stats": ("LevelStats", "SimulationResult"),
    "repro.cache.assoc_vec": ("miss_mask_assoc_vec", "StreamingAssocCache"),
    "repro.cache.stackdist": (
        "MissTaxonomy", "classify_misses", "reuse_distances",
    ),
    "repro.cache.streaming": ("StreamingHierarchy",),
})
