"""Content-addressed, on-disk memoization of simulation results.

A :class:`ResultStore` maps the stable job key of
:mod:`repro.exec.hashing` to a :class:`~repro.cache.stats.SimulationResult`
serialized as one small JSON file, sharded by the first two hex digits of
the key.  Writes are atomic (temp file + ``os.replace``), so concurrent
worker processes and concurrent sweep runs can share one store directory:
two writers racing on the same key write identical content, and readers
never observe a partial file.

Two read tiers sit above the loose files:

* a **hot in-memory tier** -- every ``get``/``put``/``scan`` leaves the
  decoded result in a process-local dict, so re-lookups inside one
  session (autotuner rounds re-crossing configs, the executor's warm
  sweeps) never touch the filesystem again;
* a **packed manifest** (``manifest.jsonl`` in the store root) -- one
  line per entry, appended on every ``put``.  :meth:`ResultStore.scan`
  loads the whole store through it in one batched read plus one
  directory listing (reconciling any loose files the manifest missed,
  then rewriting it), instead of thousands of tiny JSON opens.  The
  loose files stay the source of truth; the manifest is a cache of
  them and is rebuilt whenever it disagrees.

Invalidation is purely content-based -- there is nothing to expire.  Any
change to the program IR, the layout, the cache geometry, or the trace
mode produces a different key; bumping
:data:`repro.exec.hashing.SCHEMA_VERSION` orphans every old entry at once.

**Concurrency contract.**  Any number of processes (the long-running
tuning service, CLI sweeps, shard runs) may share one store directory:

* loose-file writes are write-temp-then-rename, so readers never see a
  partial entry and same-key racers simply overwrite with identical
  content;
* manifest appends are one ``os.write`` on an ``O_APPEND`` fd, so
  concurrent appenders land whole lines;
* a manifest rewrite racing an append can drop the appended line -- the
  loose files stay the source of truth and the next :meth:`scan`
  reconciles, re-reading anything the manifest missed.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile

from repro.cache.stats import LevelStats, SimulationResult

__all__ = ["ResultStore", "open_default_store", "result_to_payload", "payload_to_result"]

_PAYLOAD_SCHEMA = 1

MANIFEST_NAME = "manifest.jsonl"

# Environment surface: REPRO_CACHE_DIR points the default store somewhere,
# REPRO_NO_CACHE=1 disables it outright.
ENV_CACHE_DIR = "REPRO_CACHE_DIR"
ENV_NO_CACHE = "REPRO_NO_CACHE"


def result_to_payload(result: SimulationResult) -> dict:
    """Lossless JSON-able encoding of a simulation result."""
    return {
        "schema": _PAYLOAD_SCHEMA,
        "total_refs": result.total_refs,
        "levels": [
            {"name": lv.name, "accesses": lv.accesses, "misses": lv.misses}
            for lv in result.levels
        ],
    }


def payload_to_result(payload: dict) -> SimulationResult:
    """Inverse of :func:`result_to_payload` (raises on malformed payloads)."""
    if payload.get("schema") != _PAYLOAD_SCHEMA:
        raise ValueError(f"unsupported result payload schema: {payload.get('schema')!r}")
    return SimulationResult(
        total_refs=int(payload["total_refs"]),
        levels=tuple(
            LevelStats(
                name=lv["name"],
                accesses=int(lv["accesses"]),
                misses=int(lv["misses"]),
            )
            for lv in payload["levels"]
        ),
    )


class ResultStore:
    """Disk-backed result cache keyed by content hash.

    ``hits`` / ``misses`` count :meth:`get` outcomes and ``puts`` counts
    writes, giving the executor its observability for free.  Results
    served from the in-memory hot tier count as hits -- they *are*
    store hits, just cheap ones.
    """

    def __init__(self, root: str | os.PathLike):
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self._hot: dict[str, SimulationResult] = {}
        self._scanned = False

    @property
    def manifest_path(self) -> pathlib.Path:
        return self.root / MANIFEST_NAME

    def path_for(self, key: str) -> pathlib.Path:
        """Sharded file path of one key."""
        return self.root / key[:2] / f"{key}.json"

    def _read_file(self, key: str) -> SimulationResult | None:
        try:
            payload = json.loads(self.path_for(key).read_text())
            return payload_to_result(payload)
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def peek(self, key: str) -> SimulationResult | None:
        """Lookup without touching the hit/miss counters (merge, tests)."""
        cached = self._hot.get(key)
        if cached is not None:
            return cached
        result = self._read_file(key)
        if result is not None:
            self._hot[key] = result
        return result

    def get(self, key: str) -> SimulationResult | None:
        """Look up a key; unreadable or corrupt entries count as misses.

        Hot-tier entries answer without filesystem access; cold lookups
        fall through to the loose file (so entries written by *another*
        process after a :meth:`scan` are still found)."""
        result = self.peek(key)
        if result is None:
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, key: str, result: SimulationResult) -> None:
        """Store a result atomically (last writer wins, content identical).

        Write-through: the loose file is the durable record, the hot
        tier serves later lookups, and one line is appended to the
        manifest so the next :meth:`scan` (this process or another)
        stays a single batched read.
        """
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = result_to_payload(result)
        blob = json.dumps(payload, separators=(",", ":"))
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as f:
                f.write(blob)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._hot[key] = result
        self._append_manifest(key, payload)
        self.puts += 1

    def _append_manifest(self, key: str, payload: dict) -> None:
        # One os.write on an O_APPEND fd: concurrent writers (the tuning
        # service and a CLI sweep sharing one store dir) each land a
        # whole line, never an interleaved one.  POSIX guarantees the
        # atomicity for appends of this size; a torn line on an exotic
        # filesystem is still tolerated by _read_manifest/scan.
        line = json.dumps({"key": key, **payload}, separators=(",", ":"))
        try:
            fd = os.open(
                self.manifest_path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644
            )
            try:
                os.write(fd, (line + "\n").encode("utf-8"))
            finally:
                os.close(fd)
        except OSError:
            pass  # manifest is a cache; scan() rebuilds it from loose files

    def _read_manifest(self) -> dict[str, SimulationResult]:
        out: dict[str, SimulationResult] = {}
        try:
            text = self.manifest_path.read_text()
        except OSError:
            return out
        for line in text.splitlines():
            if not line.strip():
                continue
            try:
                row = json.loads(line)
                out[row["key"]] = payload_to_result(row)
            except (ValueError, KeyError, TypeError):
                continue  # torn or stale line; the loose file wins
        return out

    def _loose_entries(self) -> list[os.DirEntry]:
        """Every loose ``<shard>/<key>.json`` entry, one scandir per directory."""
        try:
            with os.scandir(self.root) as it:
                shards = [entry.path for entry in it if entry.is_dir()]
        except OSError:
            return []
        found = []
        for shard in shards:
            try:
                with os.scandir(shard) as it:
                    found += [entry for entry in it if entry.name.endswith(".json")]
            except OSError:
                continue  # removed under us; its entries are gone too
        return found

    def _loose_keys(self) -> set[str]:
        return {entry.name[:-len(".json")] for entry in self._loose_entries()}

    def scan(self, refresh: bool = False) -> dict[str, SimulationResult]:
        """Load every stored entry in one batched read; returns the map.

        Reads the manifest once, reconciles it against the loose-file
        listing (files the manifest missed are read individually, stale
        manifest entries are dropped), rewrites the manifest when it
        disagreed, and leaves everything in the hot tier.  Idempotent
        and cached per store instance; pass ``refresh=True`` to pick up
        entries another process wrote since the last scan.
        """
        if self._scanned and not refresh:
            return dict(self._hot)
        manifest = self._read_manifest()
        loose = self._loose_keys()
        entries: dict[str, SimulationResult] = {}
        missed = 0
        for key in loose:
            result = manifest.get(key)
            if result is None:
                result = self._read_file(key)
                missed += 1
            if result is not None:
                entries[key] = result
        if missed or set(manifest) - loose:
            self._rewrite_manifest(entries)
        self._hot.update(entries)
        self._scanned = True
        return dict(self._hot)

    def _rewrite_manifest(self, entries: dict[str, SimulationResult]) -> None:
        try:
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            with os.fdopen(fd, "w") as f:
                for key in sorted(entries):
                    row = {"key": key, **result_to_payload(entries[key])}
                    f.write(json.dumps(row, separators=(",", ":")) + "\n")
            os.replace(tmp, self.manifest_path)
        except OSError:
            pass  # cache only; next scan tries again

    def merge_from(self, other: "ResultStore") -> int:
        """Copy every entry of ``other`` into this store; returns count.

        The byte-equality of colliding keys is the caller's concern
        (see :func:`repro.exec.shard.merge_stores`, which verifies it);
        this primitive just bulk-copies.
        """
        count = 0
        for key, result in other.scan().items():
            self.put(key, result)
            count += 1
        return count

    def __contains__(self, key: str) -> bool:
        return key in self._hot or self.path_for(key).is_file()

    def __len__(self) -> int:
        return len(self._loose_entries())

    def clear(self) -> int:
        """Delete every stored entry; returns how many were removed."""
        removed = 0
        for entry in self._loose_entries():
            try:
                os.unlink(entry.path)
                removed += 1
            except OSError:
                pass
        try:
            self.manifest_path.unlink()
        except OSError:
            pass
        self._hot.clear()
        self._scanned = False
        return removed

    @property
    def hit_rate(self) -> float:
        """Fraction of ``get`` calls served from memory or disk (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:
        return (
            f"ResultStore({str(self.root)!r}, hits={self.hits}, "
            f"misses={self.misses}, puts={self.puts}, hot={len(self._hot)})"
        )


def open_default_store() -> ResultStore | None:
    """The environment-configured store, or None when caching is off.

    Library entry points (``simulate_program`` etc.) memoize only when the
    user opts in via ``REPRO_CACHE_DIR``; the experiments CLI constructs
    its own store explicitly (on by default there, see ``--no-cache``).
    """
    if os.environ.get(ENV_NO_CACHE):
        return None
    root = os.environ.get(ENV_CACHE_DIR)
    if not root:
        return None
    return ResultStore(root)
