"""Content-addressed, on-disk memoization of simulation results.

A :class:`ResultStore` maps the stable job key of
:mod:`repro.exec.hashing` to a :class:`~repro.cache.stats.SimulationResult`.
It is one :class:`LogStore`, the implementation shared with the tuning
service's :class:`~repro.service.planner.TuningStore`: the whole on-disk
format is one append-only JSONL log, ``<root>/manifest.jsonl``, of
``{"key": <64-hex>, **payload}`` rows, behind an in-memory hot tier.

* ``put`` appends one line with one ``os.write`` on an ``O_APPEND`` fd
  and leaves the value in the hot tier;
* a lookup that misses the hot tier reads the log from this handle's
  byte offset to EOF, so a handle's first miss loads the whole log once
  and later misses read only rows appended since (by any process);
* :meth:`LogStore.scan` refreshes the same way and returns every entry.

Rows are decoded strictly: a row that is not a JSON object, has no
64-hex ``key``, or whose payload does not decode exactly (see
:func:`payload_to_result`) is skipped, so a damaged log degrades to a
recompute, never to a wrong answer.

Invalidation is purely content-based -- there is nothing to expire.  Any
change to the program IR, the layout, the cache geometry, or the trace
mode produces a different key; bumping
:data:`repro.exec.hashing.SCHEMA_VERSION` orphans every old entry at once.

**Concurrency contract.**  Any number of processes (the long-running
tuning service, CLI sweeps, shard runs) and threads may share one store
directory:

* each append is one ``os.write`` on an ``O_APPEND`` fd, so concurrent
  writers land whole lines;
* a reader consumes the log only up to its last newline, so a line
  another writer is still appending is read by a later lookup;
* same-key racers append identical content; the first row that decodes
  wins and duplicates are harmless;
* a log that shrank or was replaced (:meth:`LogStore.clear`) is re-read
  from its start.  Each handle keeps its read fd open, which pins the
  old file, so a replaced log can never be mistaken for the old one.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import threading

from repro.cache.stats import LevelStats, SimulationResult

__all__ = ["LogStore", "ResultStore", "default_cache_dir", "open_default_store",
           "result_to_payload", "payload_to_result"]

_PAYLOAD_SCHEMA = 1

#: The log's file name.  Stores written when each entry was also a loose
#: ``<ab>/<key>.json`` file kept a manifest of the same rows here, so they
#: still replay warm.
MANIFEST_NAME = "manifest.jsonl"

# Environment surface: REPRO_CACHE_DIR points the default store somewhere,
# REPRO_NO_CACHE=1 disables it outright.
ENV_CACHE_DIR = "REPRO_CACHE_DIR"
ENV_NO_CACHE = "REPRO_NO_CACHE"

_KEY = re.compile(r"[0-9a-f]{64}")


def _exact(value, kind: type):
    """``value`` when its type is exactly ``kind`` (so no bool for int)."""
    if type(value) is not kind:
        raise TypeError(f"expected {kind.__name__}, got {value!r}")
    return value


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
    """Inverse of :func:`result_to_payload`; raises on malformed payloads.

    Nothing is coerced: counts must be exact ``int`` values (not floats,
    strings or bools) and level names ``str`` values.
    """
    if payload.get("schema") != _PAYLOAD_SCHEMA:
        raise ValueError(f"unsupported result payload schema: {payload.get('schema')!r}")
    return SimulationResult(
        total_refs=_exact(payload["total_refs"], int),
        levels=tuple(
            LevelStats(
                name=_exact(lv["name"], str),
                accesses=_exact(lv["accesses"], int),
                misses=_exact(lv["misses"], int),
            )
            for lv in payload["levels"]
        ),
    )


class LogStore:
    """A content-addressed store: one append-only JSONL log + a hot tier.

    Subclasses supply only :meth:`encode` (value to JSON object) and
    :meth:`decode` (row to value; raising or returning None skips the
    row).  ``hits`` / ``misses`` count :meth:`get` outcomes and ``puts``
    counts writes.  Hot-tier answers count as hits -- they *are* store
    hits, just cheap ones.
    """

    _fd: int | None = None

    def __init__(self, root: str | os.PathLike):
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.log_path = self.root / MANIFEST_NAME
        self.hits = self.misses = self.puts = 0
        self._hot: dict = {}
        self._offset = 0
        self._lock = threading.Lock()

    def encode(self, value) -> dict:
        return value

    def decode(self, row: dict):
        raise NotImplementedError

    def _refresh(self) -> None:
        """Decode the rows appended to the log since this handle last looked."""
        with self._lock:
            try:
                st = os.stat(self.log_path)
                if self._fd is None or not os.path.samestat(st, os.fstat(self._fd)):
                    self._close()
                    self._fd = os.open(self.log_path, os.O_RDONLY)
                size = os.fstat(self._fd).st_size
            except OSError:  # no log yet, or it vanished: nothing to read
                self._close()
                return
            if size < self._offset:
                self._offset = 0
            data = os.pread(self._fd, size - self._offset, self._offset)
            end = data.rfind(b"\n") + 1
            self._offset += end
            for line in data[:end].split(b"\n"):
                try:
                    row = json.loads(line)
                    key = row["key"] if type(row) is dict else None
                    if type(key) is not str or not _KEY.fullmatch(key) or key in self._hot:
                        continue  # not a row, or the first decoded row already won
                    value = self.decode(row)
                except (ValueError, KeyError, TypeError, RecursionError):
                    continue
                if value is not None:
                    self._hot[key] = value

    def _close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
        self._fd = None
        self._offset = 0

    def __del__(self):
        self._close()

    def peek(self, key: str):
        """Lookup without touching the hit/miss counters (merge, tests)."""
        value = self._hot.get(key)
        if value is None:
            self._refresh()
            value = self._hot.get(key)
        return value

    def get(self, key: str):
        """The stored value for ``key``, or None; undecodable rows are misses."""
        value = self.peek(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def put(self, key: str, value) -> None:
        """Append one row: one ``os.write`` on an ``O_APPEND`` fd (raises on failure)."""
        if not _KEY.fullmatch(key):
            raise ValueError(f"store keys are 64 lowercase hex digits, got {key!r}")
        line = json.dumps({"key": key, **self.encode(value)}, separators=(",", ":"))
        fd = os.open(self.log_path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            os.write(fd, (line + "\n").encode("utf-8"))
        finally:
            os.close(fd)
        self._hot[key] = value
        self.puts += 1

    def scan(self) -> dict:
        """Read any rows appended since the last look; returns every entry."""
        self._refresh()
        return dict(self._hot)

    def __contains__(self, key: str) -> bool:
        return self.peek(key) is not None

    def __len__(self) -> int:
        self._refresh()
        return len(self._hot)

    def clear(self) -> int:
        """Delete the log and the hot tier; returns how many entries there were."""
        removed = len(self)
        with self._lock:
            self.log_path.unlink(missing_ok=True)
            self._close()
            self._hot.clear()
        return removed

    @property
    def hit_rate(self) -> float:
        """Fraction of ``get`` calls served from memory or disk (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({str(self.root)!r}, hits={self.hits}, "
            f"misses={self.misses}, puts={self.puts}, hot={len(self._hot)})"
        )


class ResultStore(LogStore):
    """Disk-backed simulation-result cache keyed by content hash."""

    def encode(self, result: SimulationResult) -> dict:
        return result_to_payload(result)

    def decode(self, row: dict) -> SimulationResult:
        return payload_to_result(row)


def default_cache_dir() -> pathlib.Path:
    """The CLIs' store directory: ``$REPRO_CACHE_DIR`` when set, else
    ``~/.cache/repro-sim``."""
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return pathlib.Path(env)
    return pathlib.Path.home() / ".cache" / "repro-sim"


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
