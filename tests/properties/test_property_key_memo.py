"""The key memo never changes a key.

:func:`repro.exec.hashing.job_key` joins per-object JSON fragments that
it memoizes by ``id``.  Over fuzz-generated programs, padded layouts and
random hierarchies, every memoized key must equal the digest of the full
canonical list.  Each draw builds fresh objects and drops the previous
draw's, so CPython hands recycled ids to objects with different content
-- exactly the case a stale memo entry would get wrong.  The plain tests
pin the two facts the memo must keep about the objects it describes: it
holds no strong reference, and it leaves their pickled bytes alone.
"""

from __future__ import annotations

import gc
import pickle
import sys
import threading
import weakref

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DataLayout, ultrasparc_i
from repro.cache.config import CacheConfig, HierarchyConfig
from repro.exec import hashing
from repro.exec.hashing import (
    SCHEMA_VERSION,
    canonical,
    digest,
    encode,
    fragment,
    job_key,
)
from repro.fuzz import FuzzConfig, random_program

CONFIG = FuzzConfig(max_refs=20_000, max_trip=32)


def reference_key(program, layout, hierarchy, trace, backend) -> str:
    """The key as one ``digest`` of the whole canonical list, no memo."""
    return digest([
        SCHEMA_VERSION,
        ["backend", backend],
        canonical(program),
        canonical(layout),
        canonical(hierarchy),
        canonical(tuple(trace)),
    ])


@st.composite
def job_params(draw) -> dict:
    """Plain parameters of one job; :func:`build` makes fresh objects."""
    l1_line = draw(st.sampled_from([16, 32, 64]))
    return {
        "seed": draw(st.integers(0, 10_000)),
        "pads": draw(st.lists(st.integers(0, 64), min_size=3, max_size=3)),
        "levels": (
            (draw(st.sampled_from([1, 2, 8])) * 1024, l1_line,
             draw(st.sampled_from([1, 2, 4])), "L1"),
            (draw(st.sampled_from([16, 64])) * 1024,
             draw(st.sampled_from([l1_line, 2 * l1_line])),
             draw(st.sampled_from([1, 4])), "L2"),
        ),
        "trace": draw(st.sampled_from([
            ("program",), ("nest", 0), ("nest", True), ("kernel", "irr500k"),
        ])),
        "backend": draw(st.sampled_from(["sim", "oracle"])),
    }


def build(params: dict) -> tuple:
    """Fresh (program, layout, hierarchy, trace, backend) objects."""
    program = random_program(params["seed"], CONFIG)
    layout = DataLayout.sequential(program)
    for name, pad in zip((a.name for a in program.arrays), params["pads"]):
        layout = layout.with_pad(name, pad * 8)
    hierarchy = HierarchyConfig(
        levels=tuple(CacheConfig(*level) for level in params["levels"])
    )
    return program, layout, hierarchy, params["trace"], params["backend"]


@settings(max_examples=60, deadline=None)
@given(st.lists(job_params(), min_size=2, max_size=6))
def test_memoized_key_equals_full_digest(draws):
    # Build, key, drop: each job's objects may take ids the previous
    # job's objects just freed, with different content.
    keys = []
    for params in draws:
        spec = build(params)
        want = reference_key(*spec)
        assert job_key(*spec) == want
        assert job_key(*spec) == want, "a memo hit must match the first sight"
        assert fragment(spec[0]) == encode(canonical(spec[0]))
        keys.append(want)
        del spec
    # Rebuild in reverse: equal content from new objects, in ids the
    # memo has seen for other content, keys the same.
    for params, want in zip(reversed(draws), reversed(keys)):
        assert job_key(*build(params)) == want


def test_bool_and_int_traces_stay_distinct():
    program = random_program(3, CONFIG)
    layout, hier = DataLayout.sequential(program), ultrasparc_i()
    for trace in [("nest", 1), ("nest", True), ("nest", 1)]:
        assert job_key(program, layout, hier, trace) == reference_key(
            program, layout, hier, trace, "sim")


def test_memo_holds_no_strong_reference():
    program = random_program(7, CONFIG)
    job_key(program, DataLayout.sequential(program), ultrasparc_i())
    key = id(program)
    assert key in hashing._FRAGMENTS
    alive = weakref.ref(program)
    del program
    gc.collect()
    assert alive() is None, "a keyed Program must still be collectable"
    assert key not in hashing._FRAGMENTS, "its memo entry must go with it"


def test_keying_leaves_pickled_bytes_alone():
    program = random_program(11, CONFIG)
    layout = DataLayout.sequential(program)
    hier = ultrasparc_i()
    before = [pickle.dumps(obj) for obj in (program, layout, hier)]
    job_key(program, layout, hier)
    fragment(program)
    assert [pickle.dumps(obj) for obj in (program, layout, hier)] == before


def test_recycled_id_never_serves_another_objects_text(monkeypatch):
    # Plant an entry for this id that describes some other object, as a
    # memo missing its eviction would hold after the id was recycled.
    program = random_program(5, CONFIG)
    other = random_program(6, CONFIG)
    stale = {id(program): (weakref.ref(other), fragment(other))}
    monkeypatch.setattr(hashing, "_FRAGMENTS", stale)
    assert fragment(program) == hashing.encode(canonical(program))
    assert stale[id(program)][0]() is program


def test_threads_keying_fresh_objects_agree():
    # Tuning-service threads key concurrently; each thread builds and
    # drops its own objects so ids churn under a short switch interval.
    params = [{"seed": seed, "pads": [seed % 5, 0, 3], "trace": ("program",),
               "levels": ((1024, 32, 1, "L1"), (16384, 64, 4, "L2")),
               "backend": "sim"} for seed in range(12)]
    want = [reference_key(*build(p)) for p in params]
    errors = []

    def worker(offset: int) -> None:
        for r in range(20):
            i = (offset + r) % len(params)
            if job_key(*build(params[i])) != want[i]:
                errors.append(i)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
