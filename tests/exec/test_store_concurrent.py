"""Concurrent-writer behaviour of the result store.

The tuning service keeps a long-lived store open while CLI sweeps (or
other service workers) write the same directory.  These tests pin the
store's concurrency contract: racing ``put()`` calls from several
processes/instances never corrupt an entry, the log survives
interleaved appends without torn lines, and a long-lived instance
reads whatever a concurrent writer appended behind its back.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import sys
import threading

import pytest

from repro.cache.stats import LevelStats, SimulationResult
from repro.exec.store import ResultStore, result_to_payload


def result_for(n: int) -> SimulationResult:
    l1_misses = n % 50
    return SimulationResult(
        total_refs=100 + n,
        levels=(
            LevelStats(name="L1", accesses=100 + n, misses=l1_misses),
            LevelStats(name="L2", accesses=l1_misses, misses=l1_misses // 2),
        ),
    )


def key_for(n: int) -> str:
    return f"{n:064x}"


def _writer(args) -> int:
    """One worker process: its own store instance, its own key range."""
    root, start, count = args
    store = ResultStore(root)
    for n in range(start, start + count):
        store.put(key_for(n), result_for(n))
    return count


class TestConcurrentPuts:
    def test_multiprocess_writers_reconcile_to_the_union(self, tmp_path):
        """N processes stream puts into one dir; a fresh scan sees all."""
        ranges = [(str(tmp_path), start, 25) for start in (0, 100, 200, 300)]
        ctx = mp.get_context("spawn")
        try:
            with ctx.Pool(4) as pool:
                counts = pool.map(_writer, ranges)
        except OSError:  # pragma: no cover - restricted sandboxes
            pytest.skip("cannot fork worker processes here")
        assert sum(counts) == 100
        entries = ResultStore(tmp_path).scan()
        assert len(entries) == 100
        for _, start, count in ranges:
            for n in range(start, start + count):
                assert entries[key_for(n)] == result_for(n)

    def test_manifest_has_no_torn_lines_after_concurrent_appends(self, tmp_path):
        """Threaded writers on separate instances: every line parses."""
        stores = [ResultStore(tmp_path) for _ in range(4)]

        def work(store: ResultStore, start: int) -> None:
            for n in range(start, start + 30):
                store.put(key_for(n), result_for(n))

        threads = [
            threading.Thread(target=work, args=(s, i * 1000))
            for i, s in enumerate(stores)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        lines = (tmp_path / "manifest.jsonl").read_text().splitlines()
        assert len(lines) == 120
        keys = set()
        for line in lines:
            row = json.loads(line)  # a torn line would fail to parse
            keys.add(row["key"])
        assert len(keys) == 120

    def test_threads_sharing_one_handle_lose_no_row(self, tmp_path):
        """Reader threads race one handle's refreshes while another
        handle appends; a row skipped by a lost offset update would
        never be read again."""
        keys = [key_for(n) for n in range(300)]
        reader = ResultStore(tmp_path)
        done = threading.Event()

        def write() -> None:
            writer = ResultStore(tmp_path)
            for n, key in enumerate(keys):
                writer.put(key, result_for(n))
            done.set()

        def read(seed: int) -> None:
            n = seed
            while not done.is_set():
                reader.get(keys[n % len(keys)])
                n += 7

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=write)] + [
                threading.Thread(target=read, args=(i,)) for i in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert all(reader.get(key) == result_for(n) for n, key in enumerate(keys))

    def test_same_key_racers_leave_one_readable_entry(self, tmp_path):
        """Identical-content racers on one key: every duplicate row carries
        the same content, and the first decoded row wins on scan."""
        a, b = ResultStore(tmp_path), ResultStore(tmp_path)
        for _ in range(10):
            a.put(key_for(7), result_for(7))
            b.put(key_for(7), result_for(7))
        fresh = ResultStore(tmp_path)
        assert fresh.scan() == {key_for(7): result_for(7)}
        assert len(fresh) == 1

    def test_first_decoded_row_wins(self, tmp_path):
        """Duplicate rows of one key: a reader keeps the first that
        decodes, and a re-read never replaces a value it holds."""
        store = ResultStore(tmp_path)
        store.put(key_for(7), result_for(7))
        with open(tmp_path / "manifest.jsonl", "a") as f:
            row = {"key": key_for(7), **result_to_payload(result_for(8))}
            f.write(json.dumps(row) + "\n")
        assert ResultStore(tmp_path).scan() == {key_for(7): result_for(7)}
        assert store.scan() == {key_for(7): result_for(7)}

    def test_scan_refresh_picks_up_a_concurrent_writer(self, tmp_path):
        """A long-lived instance's scan reads entries another wrote."""
        service = ResultStore(tmp_path)
        service.put(key_for(1), result_for(1))
        assert len(service.scan()) == 1
        # A CLI sweep writes the same directory behind the service's back.
        cli = ResultStore(tmp_path)
        cli.put(key_for(2), result_for(2))
        cli.put(key_for(3), result_for(3))
        assert set(service.scan()) == {key_for(1), key_for(2), key_for(3)}

    def test_long_lived_get_finds_a_later_put(self, tmp_path):
        """No explicit refresh: a hot-tier miss reads the rows appended
        since the handle last looked."""
        service = ResultStore(tmp_path)
        service.put(key_for(1), result_for(1))
        assert service.get(key_for(2)) is None
        ResultStore(tmp_path).put(key_for(2), result_for(2))
        assert service.get(key_for(2)) == result_for(2)
        assert (service.hits, service.misses) == (1, 1)

    def test_torn_manifest_line_is_tolerated(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(key_for(1), result_for(1))
        with open(tmp_path / "manifest.jsonl", "a") as f:
            f.write('{"key": "deadbeef", "truncat')  # torn write
        entries = ResultStore(tmp_path).scan()
        assert set(entries) == {key_for(1)}
