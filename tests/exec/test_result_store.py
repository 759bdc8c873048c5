"""The result store's key contract and on-disk behaviour.

The memoization layer is only sound if the job key captures *everything*
that can change a simulation's counters and *nothing* that cannot.  These
tests pin both directions: cosmetic renames collide (good -- shared cache
entries), while any pad, base, loop-bound or cache-geometry perturbation
separates keys.
"""

from __future__ import annotations

import json
import pathlib
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    CacheConfig,
    DataLayout,
    HierarchyConfig,
    LevelStats,
    ProgramBuilder,
    SimulationResult,
    ultrasparc_i,
)
from repro.exec.hashing import (
    SCHEMA_VERSION,
    canonical,
    digest,
    job_key,
)
from repro.cache.streaming import StreamingHierarchy
from repro.exec.executor import SweepExecutor
from repro.exec.jobs import SimJob
from repro.exec.store import ResultStore, payload_to_result, result_to_payload
from repro.trace.generator import program_line_chunks


def build_program(n: int = 64, name: str = "prog", label: str = "nest1"):
    b = ProgramBuilder(name)
    A = b.array("A", (n, n))
    B = b.array("B", (n, n))
    i, j = b.vars("i", "j")
    b.nest(
        [b.loop(j, 1, n - 1), b.loop(i, 1, n)],
        [b.assign(B[i, j], reads=[A[i, j], A[i, j + 1]], flops=1)],
        label=label,
    )
    return b.build()


class TestKeyStability:
    def test_identical_inputs_identical_key(self):
        p1, p2 = build_program(), build_program()
        lay1, lay2 = DataLayout.sequential(p1), DataLayout.sequential(p2)
        hier = ultrasparc_i()
        assert job_key(p1, lay1, hier) == job_key(p2, lay2, hier)

    def test_cosmetic_names_do_not_change_key(self):
        """Program name and nest labels never reach the key: a rename
        must keep sharing cache entries."""
        p1 = build_program(name="expl_a", label="velocity")
        p2 = build_program(name="expl_b", label="advance")
        hier = ultrasparc_i()
        lay = DataLayout.sequential(p1)
        assert job_key(p1, lay, hier) == job_key(p2, lay, hier)
        assert digest(canonical(p1)) == digest(canonical(p2))

    def test_key_is_hex_sha256(self):
        p = build_program()
        key = job_key(p, DataLayout.sequential(p), ultrasparc_i())
        assert len(key) == 64
        int(key, 16)  # raises if not hex

    def test_schema_version_participates(self):
        p = build_program()
        payload = [
            SCHEMA_VERSION,
            canonical(p),
            canonical(DataLayout.sequential(p)),
            canonical(ultrasparc_i()),
            canonical(("program",)),
        ]
        bumped = [SCHEMA_VERSION + 1] + payload[1:]
        assert digest(payload) != digest(bumped)


class TestKeySensitivity:
    """Every physically meaningful perturbation must separate keys."""

    def setup_method(self):
        self.program = build_program()
        self.layout = DataLayout.sequential(self.program)
        self.hier = ultrasparc_i()

    def key(self, program=None, layout=None, hier=None, trace=("program",)):
        return job_key(
            program or self.program,
            layout or self.layout,
            hier or self.hier,
            trace,
        )

    @given(pad=st.integers(min_value=8, max_value=4096))
    @settings(max_examples=30, deadline=None)
    def test_pad_changes_key(self, pad):
        padded = self.layout.with_pad("A", pad)
        assert self.key(layout=padded) != self.key()

    def test_origin_changes_key(self):
        moved = DataLayout.sequential(self.program, origin=4096)
        assert self.key(layout=moved) != self.key()

    def test_variable_order_changes_key(self):
        lay = self.layout
        reordered = DataLayout(tuple(reversed(lay.order)), tuple(reversed(lay.pads)),
                               tuple(reversed(lay.sizes)), lay.origin)
        assert reordered.order == ("B", "A")
        assert self.key(layout=reordered) != self.key()

    def test_loop_bound_changes_key(self):
        assert (
            digest(canonical(build_program(n=64)))
            != digest(canonical(build_program(n=65)))
        )

    @given(size=st.sampled_from([8192, 32768, 65536]))
    @settings(max_examples=10, deadline=None)
    def test_cache_size_changes_key(self, size):
        l1 = CacheConfig(size=size, line_size=32, name="L1")
        hier = HierarchyConfig(levels=(l1,))
        base = HierarchyConfig(levels=(CacheConfig(size=16384, line_size=32, name="L1"),))
        assert self.key(hier=hier) != self.key(hier=base)

    def test_line_size_and_associativity_change_key(self):
        mk = lambda line, assoc: HierarchyConfig(
            levels=(CacheConfig(size=16384, line_size=line, associativity=assoc, name="L1"),)
        )
        keys = {self.key(hier=mk(32, 1)), self.key(hier=mk(64, 1)), self.key(hier=mk(32, 2))}
        assert len(keys) == 3

    def test_trace_mode_changes_key(self):
        keys = {
            self.key(trace=("program",)),
            self.key(trace=("nest", 0)),
            self.key(trace=("kernel", "irr500k")),
        }
        assert len(keys) == 3

    def test_hit_cycles_do_not_change_key(self):
        """The cycle model is applied after simulation; charging different
        hit costs must keep reusing stored counters."""
        mk = lambda cost: HierarchyConfig(
            levels=(CacheConfig(size=16384, line_size=32, name="L1", hit_cycles=cost),)
        )
        assert self.key(hier=mk(1.0)) == self.key(hier=mk(7.0))

    def test_chunking_does_not_change_key(self):
        """The key names no chunk budget: the counters it serves are the
        same at any budget."""
        job = SimJob(program=self.program, layout=self.layout, hierarchy=self.hier)
        small = StreamingHierarchy(self.hier).feed_all(
            program_line_chunks(self.program, self.layout, self.hier, 1000)
        )
        assert small.result() == job.run()

    def test_tag_does_not_change_key(self):
        a = SimJob(program=self.program, layout=self.layout, hierarchy=self.hier)
        b = SimJob(
            program=self.program, layout=self.layout, hierarchy=self.hier,
            tag=("fig9", "dot", 42),
        )
        assert a.key() == b.key()


levels_strategy = st.lists(
    st.tuples(
        st.sampled_from(["L1", "L2", "L3", "TLB"]),
        st.integers(min_value=0, max_value=10**12),
        st.integers(min_value=0, max_value=10**12),
    ),
    min_size=1,
    max_size=4,
)


class TestPayloadRoundTrip:
    @given(total=st.integers(min_value=0, max_value=10**12), levels=levels_strategy)
    @settings(max_examples=80, deadline=None)
    def test_lossless(self, total, levels):
        result = SimulationResult(
            total_refs=total,
            levels=tuple(
                LevelStats(name=n, accesses=a, misses=min(m, a))
                for n, a, m in levels
            ),
        )
        back = payload_to_result(result_to_payload(result))
        assert back == result
        # And stable through an actual JSON round trip, as the store does it.
        assert payload_to_result(json.loads(json.dumps(result_to_payload(result)))) == result


class TestResultStore:
    def make_result(self):
        return SimulationResult(
            total_refs=1000,
            levels=(
                LevelStats(name="L1", accesses=1000, misses=120),
                LevelStats(name="L2", accesses=120, misses=17),
            ),
        )

    def test_put_get_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "ab" + "0" * 62
        assert store.get(key) is None
        store.put(key, self.make_result())
        assert key in store
        assert store.get(key) == self.make_result()
        assert len(store) == 1
        assert (store.hits, store.misses, store.puts) == (1, 1, 1)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "ef" + "2" * 62
        store.put(key, self.make_result())
        # The writing instance keeps serving from its hot tier even if
        # the log is clobbered behind its back...
        store.log_path.write_text("{not json\n")
        assert store.get(key) == self.make_result()
        # ...but a fresh instance (a new process) sees a miss.
        assert ResultStore(tmp_path).get(key) is None
        # A wrong-schema payload is also rejected, not mis-parsed.
        store.log_path.write_text(json.dumps({"key": key, "schema": 99}) + "\n")
        assert ResultStore(tmp_path).peek(key) is None

    def test_put_rejects_a_key_no_reader_would_accept(self, tmp_path):
        with pytest.raises(ValueError):
            ResultStore(tmp_path).put("AB" * 32, self.make_result())

    def test_hit_rate(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "aa" + "4" * 62
        store.get(key)
        store.put(key, self.make_result())
        store.get(key)
        assert (store.hits, store.misses, store.puts) == (1, 1, 1)


class TestHotTierAndManifest:
    def make_result(self, misses: int = 120) -> SimulationResult:
        return SimulationResult(
            total_refs=1000,
            levels=(LevelStats(name="L1", accesses=1000, misses=misses),),
        )

    def test_put_appends_manifest(self, tmp_path):
        store = ResultStore(tmp_path)
        keys = [f"{i:02d}" + "5" * 62 for i in range(3)]
        for key in keys:
            store.put(key, self.make_result())
        assert [p.name for p in tmp_path.iterdir()] == ["manifest.jsonl"]
        lines = store.log_path.read_text().splitlines()
        assert [json.loads(l)["key"] for l in lines] == keys

    def test_scan_loads_everything_in_one_pass(self, tmp_path):
        store = ResultStore(tmp_path)
        keys = [f"{i:02d}" + "6" * 62 for i in range(4)]
        for key in keys:
            store.put(key, self.make_result())
        fresh = ResultStore(tmp_path)
        entries = fresh.scan()
        assert set(entries) == set(keys)
        # Every later get is a hot-tier hit; deleting the log proves the
        # filesystem is not consulted again.
        store.log_path.unlink()
        for key in keys:
            assert fresh.get(key) == self.make_result()
        assert fresh.hits == len(keys)

    def test_first_miss_loads_the_whole_log(self, tmp_path):
        store = ResultStore(tmp_path)
        keys = [f"{i:02d}" + "d" * 62 for i in range(3)]
        for key in keys:
            store.put(key, self.make_result())
        fresh = ResultStore(tmp_path)
        assert fresh.get(keys[0]) == self.make_result()
        store.log_path.unlink()
        assert all(fresh.get(key) == self.make_result() for key in keys[1:])

    def test_malformed_manifest_lines_are_skipped(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "ab" + "a" * 62
        store.put(key, self.make_result())
        with open(store.log_path, "a") as f:
            f.write("{torn line\n")
        fresh = ResultStore(tmp_path)
        assert set(fresh.scan()) == {key}


GOOD_PAYLOAD = {
    "schema": 1,
    "total_refs": 10,
    "levels": [{"name": "L1", "accesses": 10, "misses": 3}],
}


def with_level(**fields) -> dict:
    return {**GOOD_PAYLOAD, "levels": [{**GOOD_PAYLOAD["levels"][0], **fields}]}


#: Rows that older decoders coerced into a *wrong* result (or crashed on).
BAD_PAYLOADS = {
    "float_misses": with_level(misses=2.9),
    "string_accesses": with_level(accesses="10"),
    "bool_misses": with_level(misses=True),
    "bool_total_refs": {**GOOD_PAYLOAD, "total_refs": True},
    "int_level_name": with_level(name=7),
}


def plant(root, key: str, payload) -> None:
    """Store ``payload`` under ``key`` in both on-disk layouts a store has
    had: a log row and a loose ``<ab>/<key>.json`` file.  A decoder of
    either layout therefore sees the same bytes."""
    row = {"key": key, **payload} if isinstance(payload, dict) else payload
    with open(root / "manifest.jsonl", "a") as f:
        f.write(json.dumps(row) + "\n")
    shard = root / key[:2]
    shard.mkdir(parents=True, exist_ok=True)
    (shard / f"{key}.json").write_text(json.dumps(payload))


class TestStrictDecoding:
    """A row decodes exactly or reads as a miss: nothing is coerced."""

    def test_good_payload_decodes(self, tmp_path):
        key = "12" * 32
        plant(tmp_path, key, GOOD_PAYLOAD)
        assert ResultStore(tmp_path).get(key) == payload_to_result(GOOD_PAYLOAD)

    @pytest.mark.parametrize("case", sorted(BAD_PAYLOADS))
    def test_bad_payload_does_not_decode(self, case):
        with pytest.raises((TypeError, ValueError)):
            payload_to_result(BAD_PAYLOADS[case])

    @pytest.mark.parametrize("case", sorted(BAD_PAYLOADS))
    def test_bad_row_is_a_miss(self, tmp_path, case):
        key = "34" * 32
        plant(tmp_path, key, BAD_PAYLOADS[case])
        store = ResultStore(tmp_path)
        assert store.get(key) is None
        assert store.scan() == {}

    @pytest.mark.parametrize("payload", [[1], "x", 7, None])
    def test_non_object_entry_is_a_miss(self, tmp_path, payload):
        key = "56" * 32
        plant(tmp_path, key, payload)
        assert ResultStore(tmp_path).get(key) is None

    @pytest.mark.parametrize("payload", [[1], {"schema": 2, "kernel": "demo"}])
    def test_tuning_store_reads_non_objects_and_other_schemas_as_misses(
        self, tmp_path, payload
    ):
        from repro.service.planner import TuningStore

        key = "9a" * 32
        plant(tmp_path, key, payload)
        assert TuningStore(tmp_path).get(key) is None

    @pytest.mark.parametrize("key", ["AB" * 32, "deadbeef", "g" * 64])
    def test_row_without_a_hex_key_is_a_miss(self, tmp_path, key):
        plant(tmp_path, key, GOOD_PAYLOAD)
        store = ResultStore(tmp_path)
        assert store.get(key) is None
        assert store.scan() == {}

    def test_later_good_row_wins_over_an_earlier_bad_one(self, tmp_path):
        key = "78" * 32
        plant(tmp_path, key, with_level(misses=2.9))
        ResultStore(tmp_path).put(key, payload_to_result(GOOD_PAYLOAD))
        assert ResultStore(tmp_path).get(key) == payload_to_result(GOOD_PAYLOAD)


#: A store written when every entry was a loose ``<ab>/<key>.json`` file
#: *and* a ``manifest.jsonl`` row (the manifest row of the third job was
#: dropped, so that entry exists only as a loose file), plus a tuning
#: store of that era, which had loose files only.
PARENT_STORE = pathlib.Path(__file__).with_name("parent_store")
PARENT_SIZES = (16, 24, 32)


class TestParentFormatStore:
    def copy(self, tmp_path) -> pathlib.Path:
        return pathlib.Path(shutil.copytree(PARENT_STORE, tmp_path / "store"))

    def test_manifest_rows_replay_as_hits(self, tmp_path):
        from tests.exec.test_executor import job_for

        root = self.copy(tmp_path)
        jobs = [job_for(n) for n in PARENT_SIZES]
        store = ResultStore(root)
        for job in jobs[:2]:
            assert store.get(job.key()) == job.run()
        # The loose-only entry is invisible now: a miss, recomputed once.
        assert store.get(jobs[2].key()) is None
        ex = SweepExecutor(workers=1, store=store)
        assert ex.run(jobs) == [job.run() for job in jobs]
        assert (ex.stats.cache_hits, ex.stats.jobs) == (2, 3)
        assert ResultStore(root).get(jobs[2].key()) == jobs[2].run()

    def test_loose_only_tuning_store_is_recomputed_once(self, tmp_path):
        from repro.service.planner import TuningStore

        root = self.copy(tmp_path) / "tunings"
        key = "5" * 64
        tunings = TuningStore(root)
        assert tunings.get(key) is None  # only a loose file: a miss
        tunings.put(key, {"schema": 1, "kernel": "demo"})
        assert TuningStore(root).get(key) == {"schema": 1, "key": key, "kernel": "demo"}
