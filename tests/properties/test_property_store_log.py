"""A damaged store log degrades to a recompute, never to a wrong answer.

The result store's whole on-disk format is one append-only JSONL log.
Other writers (crashed processes, racing appenders, older or newer
versions) can leave anything in it.  The property interleaves valid
``put``s with junk appended to the log -- truncated rows, rows missing
their newline, wrong schemas, coerced counts, non-object JSON, bad keys,
arbitrary bytes -- and after every step checks a fresh handle and a
long-lived one: ``scan()`` does not raise, every entry it returns is the
value ``put`` under that key, and every ``put`` whose row starts on a
line of its own is found.  The plain tests pin the two refresh edges: a
line still being written, and a log another handle cleared.
"""

from __future__ import annotations

import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.stats import LevelStats, SimulationResult
from repro.exec.store import ResultStore, result_to_payload

KEYS = st.integers(0, 7)


def result_for(n: int) -> SimulationResult:
    return SimulationResult(
        total_refs=100 + n,
        levels=(
            LevelStats(name="L1", accesses=100 + n, misses=n),
            LevelStats(name="L2", accesses=n, misses=n // 2),
        ),
    )


def key_for(n: int) -> str:
    return f"{n:064x}"


def row_bytes(n: int, **changes) -> bytes:
    """The row ``put(key_for(n), result_for(n))`` writes, minus its newline."""
    row = {"key": key_for(n), **result_to_payload(result_for(n)), **changes}
    return json.dumps(row, separators=(",", ":")).encode()


@st.composite
def junk(draw) -> bytes:
    """Bytes another writer might have left in the log."""
    n = draw(KEYS)
    row = row_bytes(n)
    kind = draw(st.sampled_from(
        ["truncated", "no_newline", "schema", "counts", "non_object", "bad_key", "bytes"]
    ))
    if kind == "truncated":
        return row[:draw(st.integers(1, len(row) - 1))] + draw(st.sampled_from([b"", b"\n"]))
    if kind == "no_newline":
        return row  # a racer's append of the same content, not yet finished
    if kind == "schema":
        return row_bytes(n, schema=draw(st.sampled_from([0, 2, 99, "1", None]))) + b"\n"
    if kind == "counts":
        level = {"name": "L1", "accesses": 100 + n, "misses": draw(st.sampled_from(
            [n + 1.5, str(n + 1), True, None]))}
        return row_bytes(n, levels=[level]) + b"\n"
    if kind == "non_object":
        value = draw(st.one_of(st.lists(st.integers(), max_size=3), st.integers(),
                               st.text(max_size=8), st.none()))
        return json.dumps(value).encode() + b"\n"
    if kind == "bad_key":
        key = draw(st.sampled_from(["A" * 64, key_for(n)[:63], key_for(n)[:63] + "g", 7, None]))
        return row_bytes(n, key=key) + b"\n"
    return draw(st.binary(max_size=64))


STEPS = st.lists(
    st.one_of(st.tuples(st.just("put"), KEYS), st.tuples(st.just("junk"), junk())),
    max_size=16,
)


def ends_a_line(path: str) -> bool:
    """Whether the next append to ``path`` starts a line of its own."""
    try:
        with open(path, "rb") as f:
            return f.read()[-1:] in (b"", b"\n")
    except FileNotFoundError:
        return True


def check(entries: dict, expected: set) -> None:
    for key, value in entries.items():
        assert value == result_for(int(key, 16)), f"wrong answer for {key}"
    assert expected <= set(entries)


@settings(max_examples=150, deadline=None)
@given(STEPS)
def test_junk_in_the_log_never_yields_a_wrong_answer(steps):
    with tempfile.TemporaryDirectory() as root:
        writer, reader = ResultStore(root), ResultStore(root)
        log = os.path.join(root, "manifest.jsonl")
        expected: set[str] = set()
        for action, arg in steps:
            at_line_start = ends_a_line(log)
            if action == "put":
                writer.put(key_for(arg), result_for(arg))
                if at_line_start:
                    expected.add(key_for(arg))
            else:
                with open(log, "ab") as f:
                    f.write(arg)
            check(ResultStore(root).scan(), expected)
            check(reader.scan(), expected)


def test_unfinished_tail_is_invisible_until_its_line_completes(tmp_path):
    reader = ResultStore(tmp_path)
    ResultStore(tmp_path).put(key_for(1), result_for(1))
    assert reader.get(key_for(2)) is None
    with open(reader.log_path, "ab") as f:
        f.write(row_bytes(2))  # another writer, mid-append
    assert reader.get(key_for(2)) is None
    with open(reader.log_path, "ab") as f:
        f.write(b"\n")
    assert reader.get(key_for(2)) == result_for(2)
    assert reader.get(key_for(1)) == result_for(1)


def test_second_handle_sees_puts_after_another_handle_clears(tmp_path):
    a, b = ResultStore(tmp_path), ResultStore(tmp_path)
    a.put(key_for(1), result_for(1))
    assert set(b.scan()) == {key_for(1)}
    a.log_path.unlink()
    # Same row length as the deleted log: only a fresh read can find it.
    a.put(key_for(2), result_for(2))
    assert b.get(key_for(2)) == result_for(2)


def test_log_truncated_in_place_is_re_read_from_its_start(tmp_path):
    a, b = ResultStore(tmp_path), ResultStore(tmp_path)
    a.put(key_for(1), result_for(1))
    a.put(key_for(2), result_for(2))
    assert len(b) == 2
    os.truncate(a.log_path, 0)
    a.put(key_for(3), result_for(3))
    assert b.get(key_for(3)) == result_for(3)
