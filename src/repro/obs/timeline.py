"""Windowed per-level cache telemetry: phase behaviour within one run.

Per-run totals (``ExecStats``, ``CacheStats``) say *how many* misses a
kernel took; they cannot say *when*.  The paper's phenomena are temporal
-- a cold-start burst, a conflict storm in the middle third of ERLE's
sweep, the periodic capacity spills of a tiled nest -- and competitors
like recursive cache-oblivious schedules differ from L1-targeted tiling
only *mid-stream*.  The :class:`Timeline` buckets the reference stream
into fixed windows (in references, not wall time, so two runs of the
same kernel align bucket-for-bucket) and accumulates per-cache-level
``(accesses, misses)`` pairs per window.

Exactness is the design anchor: windows partition the stream, every
recorded slice lands in exactly one window, and nothing is ever dropped
-- so the column sums equal the untimed run's per-level totals
bit-for-bit (a hypothesis property pins this for arbitrary window sizes
and chunk splits).  When a long run would exceed ``capacity`` rows the
timeline **coalesces**: adjacent rows merge pairwise and the window
doubles, preserving the sums while bounding memory -- resolution
degrades gracefully instead of the tail falling off a ring buffer.

Rows are plain lists (picklable), so worker processes ship their
timelines back with the result payload and the parent replays them as
Perfetto **counter tracks** (:func:`emit_counter_tracks`): one
miss-rate-over-time curve per level, rendered alongside the span lanes
of the same trace.
"""

from __future__ import annotations

import time

from .tracer import get_tracer

__all__ = [
    "DEFAULT_WINDOW_REFS",
    "Timeline",
    "emit_counter_tracks",
    "get_timeline_window",
    "set_timeline_window",
]

#: Default window width in L1 references.  Small enough that the quick
#: kernels (48^2 grids, ~10^5-10^6 refs) produce tens of windows, large
#: enough that full-size runs coalesce only a few times.
DEFAULT_WINDOW_REFS = 65536

_window_refs: int = DEFAULT_WINDOW_REFS


def set_timeline_window(refs: int) -> None:
    """Set the process-wide default window (refs per bucket); 0 keeps
    timelines off even under tracing (the CLI's ``--timeline-window 0``)."""
    global _window_refs
    _window_refs = max(0, int(refs))


def get_timeline_window() -> int:
    """The process-wide default window width in refs (0 = disabled)."""
    return _window_refs


class Timeline:
    """Per-window ``(accesses, misses)`` accumulation for ``levels``.

    Rows are ``[start_ref, end_ref, end_ns, [[acc, miss], ...]]`` -- one
    inner pair per cache level, in hierarchy order.  ``record()`` slices
    must be contiguous and must not straddle a window boundary (the
    streaming simulators split their chunks accordingly, reading
    :attr:`window_refs` before every chunk since coalescing may widen
    it mid-run).
    """

    __slots__ = ("levels", "window_refs", "capacity", "_rows")

    def __init__(self, levels: tuple[str, ...], window_refs: int = DEFAULT_WINDOW_REFS,
                 capacity: int = 1024):
        if window_refs <= 0:
            raise ValueError(f"window_refs must be positive, got {window_refs}")
        if capacity < 2:
            raise ValueError(f"capacity must be >= 2, got {capacity}")
        self.levels = tuple(levels)
        self.window_refs = int(window_refs)
        self.capacity = int(capacity)
        self._rows: list[list] = []

    def record(self, start_ref: int, end_ref: int,
               counts: list[tuple[int, int]], end_ns: int | None = None) -> None:
        """Accumulate one contiguous slice ``[start_ref, end_ref)``.

        ``counts[i]`` is ``(accesses, misses)`` at level ``i`` during the
        slice.  Slices within one window merge into one row.
        """
        if end_ref <= start_ref:
            return
        if end_ns is None:
            end_ns = time.time_ns()
        rows = self._rows
        if rows and start_ref // self.window_refs == rows[-1][0] // self.window_refs:
            last = rows[-1]
            last[1] = end_ref
            last[2] = end_ns
            pairs = last[3]
            for i, (acc, miss) in enumerate(counts):
                pairs[i][0] += acc
                pairs[i][1] += miss
        else:
            rows.append([start_ref, end_ref, end_ns,
                         [[acc, miss] for acc, miss in counts]])
            if len(rows) > self.capacity:
                self._coalesce()

    def _coalesce(self) -> None:
        """Merge adjacent row pairs and double the window -- sums are
        preserved exactly, resolution halves."""
        rows = self._rows
        merged: list[list] = []
        for i in range(0, len(rows), 2):
            if i + 1 < len(rows):
                a, b = rows[i], rows[i + 1]
                pairs = [[pa[0] + pb[0], pa[1] + pb[1]]
                         for pa, pb in zip(a[3], b[3])]
                merged.append([a[0], b[1], b[2], pairs])
            else:
                merged.append(rows[i])
        self._rows = merged
        self.window_refs *= 2

    def rows(self) -> list[list]:
        """The row list (copied; plain lists, picklable across processes)."""
        return [[r[0], r[1], r[2], [list(p) for p in r[3]]] for r in self._rows]


def emit_counter_tracks(levels: tuple[str, ...], rows: list[list],
                        tracer=None, pid: int | None = None,
                        tid: int | None = None, prefix: str = "timeline") -> int:
    """Replay timeline ``rows`` as counter samples on the active tracer.

    Emits two tracks per level: ``<prefix>.<level>.miss_rate`` (the
    phase curve) and ``<prefix>.<level>.refs`` (accesses + misses per
    window, the denominators).  ``pid``/``tid`` attribute the track to
    the worker that simulated the job (mirrors ``Tracer.add_span``).
    Returns the number of samples emitted.
    """
    if tracer is None:
        tracer = get_tracer()
    if not tracer.enabled or not rows:
        return 0
    emitted = 0
    for row in rows:
        ts_ns = row[2]
        for name, (acc, miss) in zip(levels, row[3]):
            rate = miss / acc if acc else 0.0
            tracer.counter(f"{prefix}.{name}.miss_rate", ts_ns=ts_ns,
                           cat="timeline", pid=pid, tid=tid, miss_rate=rate)
            tracer.counter(f"{prefix}.{name}.refs", ts_ns=ts_ns,
                           cat="timeline", pid=pid, tid=tid,
                           accesses=acc, misses=miss)
            emitted += 2
    return emitted
