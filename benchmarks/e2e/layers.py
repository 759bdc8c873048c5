"""Per-layer time ledger for traced benchmark runs.

A traced run wraps the public calls into each layer of the program from
the benchmark side and attributes every second of a sweep to one layer:

====================  ========================================================
layer                 wrapped call
====================  ========================================================
``trace.gen``         ``SimJob.chunks()`` and each ``next()`` on its iterator
``cache.<level>``     ``StreamingDirectCache.feed`` / ``StreamingAssocCache.feed``
``cache.hierarchy``   ``StreamingHierarchy.feed`` minus its levels' feeds
``symbolic.classify`` ``repro.symbolic.classify_job``
``symbolic.analyze``  ``repro.symbolic.analyze_job``
``exec.key``          ``SimJob.key``
``exec.store``        ``ResultStore.get`` / ``put`` / ``scan``
``exec.other``        ``SweepExecutor.run`` minus the layers above
``service.tune``      the service's ``run_tuning`` minus everything above
====================  ========================================================

Times are *self* times: a wrapped call nested in another wrapped call is
subtracted from its parent, so the layers add up to the wall time of the
outermost wrapped calls.  The calls also become spans in a private
:class:`repro.obs.tracer.Tracer`: one span per sweep (``exec.run``) and,
under it, one span per layer and job holding the summed self time of
that job's calls -- a sweep makes tens of thousands of chunk-level
calls, too many to record one by one without slowing the run.  That
tracer is never installed as the process tracer, so the program's own
instrumentation stays off and the executor never attaches timeline
windows: a traced run simulates exactly what an untraced run does.
"""

from __future__ import annotations

import contextlib
import functools
import os
import threading
import time

__all__ = ["Ledger", "installed", "layer_metrics", "format_layer_table"]

# Attribute the hierarchy wrapper sets on each cache level: the level's
# layer name and counter names, for its feed wrapper.
_LEVEL_ATTR = "_bench_level"

# The self time of calls that contain the named layers: reported, but
# not counted as named in the coverage.
_CONTAINERS = ("exec.other", "service.tune")
# Cache levels of every hierarchy the workloads use.
_LEVELS = ("L1", "L2")


class _Shard:
    """One thread's part of the ledger, so the hot path takes no lock."""

    __slots__ = ("seconds", "counts", "stack", "pending")

    def __init__(self):
        self.seconds: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.stack: list[float] = []  # time of nested calls, per open call
        self.pending: dict[str, list] = {}  # layer -> [first t0, seconds, calls]


class Ledger:
    """Self time per layer plus work counters, kept per thread."""

    def __init__(self):
        # Reentrant: a traced server resets the ledger from a signal handler.
        self._lock = threading.RLock()
        self._local = threading.local()
        self._shards: list[_Shard] = []
        self._peaks: dict[str, float] = {}
        self._pid = os.getpid()
        self._epoch_ns = time.time_ns()
        self._perf0 = time.perf_counter()
        self.tracer = self._new_tracer()

    @staticmethod
    def _new_tracer():
        from repro.obs.tracer import Tracer

        return Tracer()

    def reset(self) -> None:
        """Forget everything recorded so far (start of a timed phase)."""
        with self._lock:
            for shard in self._shards:
                shard.seconds.clear()
                shard.counts.clear()
                shard.pending.clear()
            self._peaks.clear()
            self.tracer = self._new_tracer()

    def _shard(self) -> _Shard:
        shard = getattr(self._local, "shard", None)
        if shard is None:
            shard = self._local.shard = _Shard()
            with self._lock:
                self._shards.append(shard)
        return shard

    def enter(self) -> tuple[_Shard, float]:
        """Open a wrapped call; returns the token :meth:`leave` takes."""
        shard = self._shard()
        shard.stack.append(0.0)
        return shard, time.perf_counter()

    def leave(self, layer: str, token: tuple[_Shard, float],
              counts: dict | None = None, span: bool = True,
              timed: str | None = None) -> float:
        """Close the innermost open call, charging its self time to ``layer``.

        ``counts`` are added to the work counters, and the call's duration
        to the counter ``timed``.  With ``span`` its self time is also
        added to the layer's pending span, recorded at the next
        :meth:`flush`.  Returns the call's duration.
        """
        shard, t0 = token
        dur = time.perf_counter() - t0
        nested = shard.stack.pop()
        if shard.stack:
            shard.stack[-1] += dur
        own = dur - nested
        shard.seconds[layer] = shard.seconds.get(layer, 0.0) + own
        if counts:
            for name, n in counts.items():
                shard.counts[name] = shard.counts.get(name, 0) + n
        if timed:
            shard.counts[timed] = shard.counts.get(timed, 0) + dur
        if span:
            acc = shard.pending.get(layer)
            if acc is None:
                shard.pending[layer] = [t0, own, 1]
            else:
                acc[1] += own
                acc[2] += 1
        return dur

    def flush(self) -> None:
        """Record this thread's pending calls under the tracer's current
        span: one span per layer, starting at its first call and lasting
        their summed self time, with the number of calls."""
        shard = self._shard()
        for layer, (t0, total, calls) in shard.pending.items():
            self.tracer.add_span(
                layer,
                start_ns=self._epoch_ns + int((t0 - self._perf0) * 1e9),
                dur_ns=int(total * 1e9),
                cat=layer.split(".", 1)[0],
                pid=self._pid,
                calls=calls,
            )
        shard.pending.clear()

    def count(self, name: str, n: float) -> None:
        counts = self._shard().counts
        counts[name] = counts.get(name, 0) + n

    def peak(self, name: str, value: float) -> None:
        with self._lock:
            self._peaks[name] = max(self._peaks.get(name, 0), value)

    def to_json(self) -> dict:
        seconds: dict[str, float] = {}
        counts: dict[str, float] = dict(self._peaks)
        with self._lock:
            for shard in self._shards:
                for name, v in list(shard.seconds.items()):
                    seconds[name] = seconds.get(name, 0.0) + v
                for name, v in list(shard.counts.items()):
                    counts[name] = counts.get(name, 0) + v
        return {"seconds": seconds, "counts": counts}


# -- wrappers -----------------------------------------------------------------

def _leaf(ledger: Ledger, layer: str, orig):
    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        token = ledger.enter()
        try:
            return orig(*args, **kwargs)
        finally:
            ledger.leave(layer, token)
    return wrapper


def _container(ledger: Ledger, layer: str, span_name: str, orig,
               counts: dict):
    """A call that contains other layers: its span parents theirs."""
    wall = f"{layer}.wall"

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        token = ledger.enter()
        try:
            with ledger.tracer.span(span_name, cat=layer.split(".", 1)[0]):
                try:
                    return orig(*args, **kwargs)
                finally:
                    ledger.flush()
        finally:
            ledger.leave(layer, token, counts=counts, span=False, timed=wall)
    return wrapper


def _timed_run(ledger: Ledger, orig):
    run = _container(ledger, "exec.other", "exec.run", orig, {"exec.runs": 1})

    @functools.wraps(orig)
    def sweep(self, jobs, *args, **kwargs):
        jobs = list(jobs)
        ledger.count("exec.jobs", len(jobs))
        return run(self, jobs, *args, **kwargs)
    return sweep


def _timed_chunks(ledger: Ledger, orig):
    @functools.wraps(orig)
    def chunks(self):
        token = ledger.enter()
        try:
            it = iter(orig(self))
        finally:
            ledger.leave("trace.gen", token)
        return _timed_iter(ledger, it)
    return chunks


def _timed_iter(ledger: Ledger, it):
    while True:
        token = ledger.enter()
        chunk = None
        try:
            chunk = next(it)
        except StopIteration:
            pass
        finally:
            counts = None if chunk is None else {"trace.chunks": 1,
                                                 "trace.refs": len(chunk)}
            ledger.leave("trace.gen", token, counts=counts)
        if chunk is None:
            # The job's last chunk has been through every level by now.
            ledger.flush()
            return
        yield chunk


def _timed_feed(ledger: Ledger, kind: str, orig):
    kind_seconds = f"cache.{kind}.seconds"
    # A level used outside a StreamingHierarchy is charged to its kind.
    untagged = (f"cache.{kind}", f"cache.{kind}.accesses", f"cache.{kind}.misses")

    @functools.wraps(orig)
    def feed(self, addresses):
        token = ledger.enter()
        accesses, misses = self.accesses, self.misses
        try:
            return orig(self, addresses)
        finally:
            layer, accesses_key, misses_key = getattr(self, _LEVEL_ATTR, untagged)
            ledger.leave(layer, token, timed=kind_seconds, counts={
                accesses_key: self.accesses - accesses,
                misses_key: self.misses - misses,
            })
    return feed


def _timed_hierarchy_feed(ledger: Ledger, orig):
    """``cache.hierarchy``: handing each level's misses to the next."""
    @functools.wraps(orig)
    def feed(self, addresses):
        token = ledger.enter()
        try:
            return orig(self, addresses)
        finally:
            ledger.leave("cache.hierarchy", token)
    return feed


def _tagging_init(orig):
    @functools.wraps(orig)
    def init(self, config, *args, **kwargs):
        orig(self, config, *args, **kwargs)
        for cfg, level in zip(config, self._levels):
            layer = f"cache.{cfg.name}"
            setattr(level, _LEVEL_ATTR,
                    (layer, f"{layer}.accesses", f"{layer}.misses"))
    return init


def _timed_get(ledger: Ledger, orig):
    @functools.wraps(orig)
    def get(self, key):
        token = ledger.enter()
        found = None
        try:
            found = orig(self, key)
            return found
        finally:
            ledger.leave("exec.store", token, counts={
                "exec.store_gets": 1, "exec.store_hits": found is not None,
            })
    return get


def _timed_classify(ledger: Ledger, orig):
    @functools.wraps(orig)
    def classify_job(job, *args, **kwargs):
        token = ledger.enter()
        levels = None
        try:
            levels = orig(job, *args, **kwargs)
            return levels
        finally:
            exact = levels is not None and all(c.exact for c in levels)
            ledger.leave("symbolic.classify", token, counts={
                "symbolic.classify_calls": 1, "symbolic.exact": exact,
            })
    return classify_job


def _timed_admit(ledger: Ledger, orig):
    @functools.wraps(orig)
    def admit(self, *args, **kwargs):
        out = orig(self, *args, **kwargs)
        ledger.peak("service.queue_depth_peak", self.depth)
        return out
    return admit


@contextlib.contextmanager
def installed(ledger: Ledger, service: bool = False):
    """Wrap every layer's public calls for the duration of the block.

    ``service`` also wraps the tuning service's pipeline entry point and
    admission queue (used inside a traced server process).
    """
    import repro.symbolic as symbolic
    from repro.cache import streaming
    from repro.exec.executor import SweepExecutor
    from repro.exec.jobs import SimJob
    from repro.exec.store import ResultStore

    undo = []

    def patch(owner, name, wrapped):
        undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapped)

    patch(SimJob, "chunks", _timed_chunks(ledger, SimJob.chunks))
    patch(SimJob, "key", _leaf(ledger, "exec.key", SimJob.key))
    patch(ResultStore, "get", _timed_get(ledger, ResultStore.get))
    patch(ResultStore, "put", _leaf(ledger, "exec.store", ResultStore.put))
    patch(ResultStore, "scan", _leaf(ledger, "exec.store", ResultStore.scan))
    patch(SweepExecutor, "run", _timed_run(ledger, SweepExecutor.run))
    patch(streaming.StreamingHierarchy, "__init__",
          _tagging_init(streaming.StreamingHierarchy.__init__))
    patch(streaming.StreamingHierarchy, "feed",
          _timed_hierarchy_feed(ledger, streaming.StreamingHierarchy.feed))
    patch(streaming.StreamingDirectCache, "feed",
          _timed_feed(ledger, "direct", streaming.StreamingDirectCache.feed))
    patch(streaming.StreamingAssocCache, "feed",
          _timed_feed(ledger, "assoc", streaming.StreamingAssocCache.feed))
    patch(symbolic, "classify_job", _timed_classify(ledger, symbolic.classify_job))
    patch(symbolic, "analyze_job",
          _leaf(ledger, "symbolic.analyze", symbolic.analyze_job))
    if service:
        from repro.service import server
        from repro.service.queue import TuningQueue

        patch(server, "run_tuning", _container(
            ledger, "service.tune", "service.tune", server.run_tuning,
            {"service.tunes": 1}))
        patch(TuningQueue, "admit", _timed_admit(ledger, TuningQueue.admit))
    try:
        yield ledger
    finally:
        for owner, name, orig in reversed(undo):
            setattr(owner, name, orig)


# -- reporting ----------------------------------------------------------------

def _rate(work: float, seconds: float) -> float:
    return work / seconds / 1e6 if seconds > 0 else 0.0


def _named_seconds(seconds: dict) -> float:
    return sum(v for k, v in seconds.items() if k not in _CONTAINERS)


def layer_metrics(ledger_json: dict, wall: float) -> dict[str, float]:
    """The per-layer metrics of one traced run.

    ``wall`` is the time the layers are measured against: the timed
    phase of a sweep, or the server's summed pipeline time for the
    service.
    """
    sec = ledger_json["seconds"]
    cnt = ledger_json["counts"]
    out = {
        "trace.gen_seconds": sec.get("trace.gen", 0.0),
        "trace.refs": cnt.get("trace.refs", 0),
        "trace.chunks": cnt.get("trace.chunks", 0),
        "trace.mrefs_per_s": _rate(cnt.get("trace.refs", 0), sec.get("trace.gen", 0.0)),
    }
    for level in _LEVELS:
        s = sec.get(f"cache.{level}", 0.0)
        accesses = cnt.get(f"cache.{level}.accesses", 0)
        out[f"cache.{level}.seconds"] = s
        out[f"cache.{level}.accesses"] = accesses
        out[f"cache.{level}.misses"] = cnt.get(f"cache.{level}.misses", 0)
        out[f"cache.{level}.mrefs_per_s"] = _rate(accesses, s)
    calls = cnt.get("symbolic.classify_calls", 0)
    gets = cnt.get("exec.store_gets", 0)
    out.update({
        "cache.hierarchy.seconds": sec.get("cache.hierarchy", 0.0),
        "cache.direct.seconds": cnt.get("cache.direct.seconds", 0.0),
        "cache.assoc.seconds": cnt.get("cache.assoc.seconds", 0.0),
        "symbolic.classify_seconds": sec.get("symbolic.classify", 0.0),
        "symbolic.classify_calls": calls,
        "symbolic.analyze_seconds": sec.get("symbolic.analyze", 0.0),
        "symbolic.exact_ratio": cnt.get("symbolic.exact", 0) / calls if calls else 0.0,
        "exec.key_seconds": sec.get("exec.key", 0.0),
        "exec.store_seconds": sec.get("exec.store", 0.0),
        "exec.store_hit_ratio": cnt.get("exec.store_hits", 0) / gets if gets else 0.0,
        "exec.jobs": cnt.get("exec.jobs", 0),
        "exec.other_seconds": sec.get("exec.other", 0.0),
        "service.tune_seconds": sec.get("service.tune", 0.0),
        "layer_wall_s": wall,
        "layer_coverage": _named_seconds(sec) / wall if wall > 0 else 0.0,
    })
    return out


_TABLE_ORDER = ("trace.gen", "cache.", "symbolic.classify", "symbolic.analyze",
                "exec.key", "exec.store", "exec.other", "service.tune")


def format_layer_table(workload: str, ledger_json: dict, wall: float,
                       wall_label: str, overhead_pct: float | None = None) -> str:
    """The "time by layer" table of one traced workload."""
    sec = ledger_json["seconds"]
    cnt = ledger_json["counts"]

    def rank(layer: str) -> int:
        return next(i for i, p in enumerate(_TABLE_ORDER + ("",))
                    if layer.startswith(p))

    rows = []
    for layer in sorted(sec, key=lambda k: (rank(k), k)):
        s = sec[layer]
        work, rate = "", ""
        if layer == "trace.gen":
            refs = cnt.get("trace.refs", 0)
            work = f"{refs / 1e6:.2f}M refs in {int(cnt.get('trace.chunks', 0))} chunks"
            rate = f"{_rate(refs, s):.2f}"
        elif f"{layer}.accesses" in cnt:
            acc = cnt[f"{layer}.accesses"]
            work = f"{acc / 1e6:.2f}M accesses, {cnt.get(f'{layer}.misses', 0) / 1e6:.2f}M misses"
            rate = f"{_rate(acc, s):.2f}"
        elif layer == "symbolic.classify":
            work = (f"{int(cnt.get('symbolic.classify_calls', 0))} calls, "
                    f"{int(cnt.get('symbolic.exact', 0))} exact")
        elif layer == "exec.store":
            work = (f"{int(cnt.get('exec.store_gets', 0))} gets, "
                    f"{int(cnt.get('exec.store_hits', 0))} hits")
        elif layer == "exec.other":
            work = f"{int(cnt.get('exec.jobs', 0))} jobs in {int(cnt.get('exec.runs', 0))} runs"
        elif layer == "service.tune":
            work = f"{int(cnt.get('service.tunes', 0))} tunings"
        share = 100.0 * s / wall if wall > 0 else 0.0
        rows.append(f"  {layer:<18} {s:>9.3f} {share:>6.1f}% {rate:>9}  {work}")
    named = _named_seconds(sec)
    attributed = sum(sec.values())
    lines = [
        f"time by layer -- {workload} ({wall_label} {wall:.3f} s)",
        f"  {'layer':<18} {'seconds':>9} {'share':>7} {'M refs/s':>9}  work",
        *rows,
        f"  {'unattributed':<18} {wall - attributed:>9.3f} "
        f"{(100.0 * (wall - attributed) / wall if wall > 0 else 0.0):>6.1f}%",
        f"coverage: named layers {100.0 * named / wall if wall > 0 else 0.0:.1f}% "
        f"of {wall_label}; named + container self time "
        f"{100.0 * attributed / wall if wall > 0 else 0.0:.1f}%",
    ]
    if overhead_pct is not None:
        lines.append(f"tracing overhead: {overhead_pct:+.1f}% "
                     "(median host-scaled round, traced vs untraced)")
    return "\n".join(lines)
