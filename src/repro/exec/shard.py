"""Deterministic sweep sharding and shard-store / trace merging.

A sweep is a list of independent jobs, so it shards trivially -- the
only design questions are *which* jobs a shard owns and how the pieces
fuse back into one artifact.  The answers here:

* **Partition by content key.**  ``ShardSpec(i, n)`` owns job *j* iff
  ``int(sha256-key-prefix, 16) % n == i - 1`` over the job's
  backend-independent content key (:meth:`SimJob.key` at the ``sim``
  backend).  The partition depends only on job *content* -- never on
  list order, worker count, or the backend a run selects -- so any two
  runs of ``--shard i/N`` over the same sweep agree on ownership, and
  the N shards exactly tile the sweep.
* **One store per shard.**  Each shard writes its own
  :class:`~repro.exec.store.ResultStore` directory;
  :func:`merge_stores` fuses them into a destination store, verifying
  that any key present in several shards carries identical payloads
  (content-addressing makes honest collisions byte-equal; a divergence
  is corruption and raises).
* **One trace per run.**  :func:`merge_traces` fuses per-shard traces
  (JSONL or Chrome) into a single JSONL file: span ids are re-based per
  shard so they cannot collide, and the metrics snapshots are merged by
  :func:`repro.obs.metrics.merge_snapshots`, so a multi-shard run
  renders as one timeline with one totals block.

The executor consumes :class:`ShardSpec` directly
(``SweepExecutor(shard="2/4")``): non-owned jobs are still served from
the store when present but are never *computed*, so a shard's store
contains exactly its partition and the merged store replays
byte-identically to the unsharded run (pinned by
``tests/exec/test_shard.py`` and the CI shard-merge smoke job).
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass

from repro.errors import ReproError
from repro.exec.store import ResultStore
from repro.obs.metrics import merge_snapshots

__all__ = ["ShardSpec", "parse_shard", "merge_stores", "merge_traces"]


@dataclass(frozen=True)
class ShardSpec:
    """One shard of an N-way sweep partition (1-based, ``i/N`` notation)."""

    index: int
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ReproError(f"shard count must be >= 1, got {self.count}")
        if not 1 <= self.index <= self.count:
            raise ReproError(
                f"shard index must be in 1..{self.count}, got {self.index}"
            )

    def owns_key(self, key: str) -> bool:
        """Deterministic ownership of one content key (hex digest)."""
        return int(key[:16], 16) % self.count == self.index - 1

    def owns(self, job) -> bool:
        """Ownership of one job, decided on its backend-independent key.

        The ``sim`` key is the partition domain: every backend of the
        same job then lands in the same shard, so a shard's store is
        self-contained whatever backend computed each job.  A ``sim``
        sweep that already holds that key calls :meth:`owns_key` instead.
        """
        return self.owns_key(job.key("sim"))

    def __str__(self) -> str:
        return f"{self.index}/{self.count}"


def parse_shard(spec: "str | ShardSpec | None") -> ShardSpec | None:
    """``"i/N"`` -> :class:`ShardSpec` (None passes through)."""
    if spec is None or isinstance(spec, ShardSpec):
        return spec
    try:
        index_s, count_s = str(spec).split("/", 1)
        return ShardSpec(int(index_s), int(count_s))
    except (ValueError, TypeError):
        raise ReproError(
            f"shard spec must look like 'i/N' (e.g. '2/4'), got {spec!r}"
        ) from None


def merge_stores(dest: "ResultStore | str", sources) -> dict[str, int]:
    """Fuse shard stores into ``dest``; returns merge statistics.

    Every entry of every source is copied into ``dest`` (one appended
    log row per entry).  A key present in several
    sources -- or already in ``dest`` -- must carry an identical
    payload; differing payloads under one content key mean a corrupt
    store and raise :class:`~repro.errors.ReproError`.  Returns
    ``{"merged": fresh entries, "duplicates": byte-equal re-merges,
    "sources": source count}``.
    """
    if not isinstance(dest, ResultStore):
        dest = ResultStore(dest)
    merged = duplicates = 0
    nsources = 0
    for source in sources:
        if not isinstance(source, ResultStore):
            source = ResultStore(source)
        nsources += 1
        for key, result in source.scan().items():
            existing = dest.peek(key)
            if existing is not None:
                if existing != result:
                    raise ReproError(
                        f"store merge conflict on key {key[:12]}...: "
                        f"{existing.summary()!r} vs {result.summary()!r}"
                    )
                duplicates += 1
                continue
            dest.put(key, result)
            merged += 1
    return {"merged": merged, "duplicates": duplicates, "sources": nsources}


def merge_traces(dest: "str | pathlib.Path", sources) -> dict[str, int]:
    """Fuse per-shard traces (JSONL or Chrome) into one JSONL file at ``dest``.

    Each source is read with :func:`repro.obs.report.load_trace_doc`.  Its
    span and event ids (and parent ids) are re-based by a per-shard offset
    so ids from different shard processes cannot collide; its counter
    samples pass through; every shard's metrics snapshot is folded by
    :func:`repro.obs.metrics.merge_snapshots` into one final line.
    Returns ``{"spans": ..., "events": ..., "sources": ...}``; a source
    that cannot be read raises :class:`ReproError` naming it.
    """
    from repro.obs.report import load_trace_doc  # lazy: only merging reads traces

    dest = pathlib.Path(dest)
    spans = events = 0
    metrics: dict = {}
    offset = 0
    nsources = 0
    dumps = json.dumps
    with open(dest, "w") as out:
        for source in sources:
            nsources += 1
            try:
                doc = load_trace_doc(source)
                metrics = merge_snapshots([metrics, doc.metrics])
            except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
                raise ReproError(f"cannot merge trace {source}: {exc}") from None
            ids = [row["id"] for row in doc.spans if isinstance(row.get("id"), int)]
            for row in doc.spans:
                if row.get("type") == "event":
                    events += 1
                else:
                    spans += 1
                for link in ("id", "parent"):
                    if isinstance(row.get(link), int):
                        row[link] += offset
                out.write(dumps(row, separators=(",", ":")) + "\n")
            for row in doc.counters:
                out.write(dumps(row, separators=(",", ":")) + "\n")
            offset += max(ids, default=0)
        if metrics:
            out.write(dumps({"type": "metrics", "metrics": metrics},
                            separators=(",", ":")) + "\n")
    return {"spans": spans, "events": events, "sources": nsources}
