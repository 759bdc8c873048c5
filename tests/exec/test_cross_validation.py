"""Cross-validation: executor-backed simulation vs the naive interpreter.

``simulate_program`` now routes through the exec subsystem (jobs, store,
executor); this must not change a single miss counter.  Randomized small
programs are replayed iteration-by-iteration through
:func:`repro.trace.interpreter.interpret_program` (which also
bounds-checks every subscript) and fed, every access kept, into a fresh
:class:`~repro.cache.streaming.StreamingHierarchy`; the per-level counts
must equal the executor path and the generator's line chunks at a small
budget exactly.
"""

from __future__ import annotations

import random

import pytest

from repro import (
    CacheConfig,
    DataLayout,
    HierarchyConfig,
    ProgramBuilder,
    simulate_program,
)
from repro.cache.assoc import replay_hierarchy
from repro.cache.config import LineChunk
from repro.cache.streaming import StreamingHierarchy
from repro.exec.executor import SweepExecutor
from repro.exec.jobs import SimJob
from repro.experiments.ext_symbolic import CROSSVAL_HIERARCHIES
from repro.kernels.registry import get_kernel
from repro.trace.generator import program_line_chunks, program_trace_chunks
from repro.trace.interpreter import interpret_program

SMALL_HIER = HierarchyConfig(
    levels=(
        CacheConfig(size=1024, line_size=32, name="L1"),
        CacheConfig(size=4096, line_size=64, associativity=2, name="L2"),
    )
)


def random_program(seed: int):
    """A small random multi-nest program with in-bounds affine subscripts."""
    rng = random.Random(seed)
    n = rng.randint(6, 14)
    b = ProgramBuilder(f"rand{seed}")
    arrays = [b.array(name, (n, n)) for name in ("A", "B", "C")[: rng.randint(2, 3)]]
    if rng.random() < 0.5:
        arrays.append(b.array("V", (n * n,)))
    i, j = b.vars("i", "j")
    for nest_idx in range(rng.randint(1, 3)):
        # Bounds leave room for +1 offsets in either subscript.
        loops = [b.loop(j, 1, n - 1), b.loop(i, 1, n - 1)]
        stmts = []
        for _ in range(rng.randint(1, 3)):
            refs = []
            for arr in arrays:
                if rng.random() < 0.3:
                    continue
                if arr.decl.rank == 1:
                    # Strided 1-D walk: (i-1)*n + j stays inside 1..n*n.
                    refs.append(arr[i * n + j - n])
                else:
                    di, dj = rng.choice([0, 1]), rng.choice([0, 1])
                    refs.append(arr[i + di, j + dj])
            if not refs:
                refs = [arrays[0][i, j]]
            target, reads = refs[0], refs[1:]
            stmts.append(b.assign(target, reads=reads, flops=rng.randint(0, 3)))
        b.nest(loops, stmts, label=f"nest{nest_idx}")
    return b.build()


def interpreter_counts(program, layout, hierarchy):
    trace = interpret_program(program, layout, check_bounds=True)
    sim = StreamingHierarchy(hierarchy)
    sim.feed(LineChunk.from_addresses(trace, hierarchy))
    return sim.result()


@pytest.mark.parametrize("seed", range(8))
def test_simulate_program_matches_interpreter(seed):
    program = random_program(seed)
    layout = DataLayout.sequential(program)
    expected = interpreter_counts(program, layout, SMALL_HIER)
    # The executor path, memoization explicitly off, and the generic
    # line chunks at a small budget.
    got = simulate_program(program, layout, SMALL_HIER, store=None)
    chunked = StreamingHierarchy(SMALL_HIER).feed_all(
        program_line_chunks(program, layout, SMALL_HIER, 256)
    ).result()
    for result in (got, chunked):
        assert result.total_refs == expected.total_refs
        for lv_got, lv_exp in zip(result.levels, expected.levels):
            assert (lv_got.name, lv_got.accesses, lv_got.misses) == (
                lv_exp.name,
                lv_exp.accesses,
                lv_exp.misses,
            )


@pytest.mark.parametrize("seed", [1, 4])
def test_pool_execution_matches_interpreter(seed):
    """The same equality must hold when jobs cross a process boundary."""
    program = random_program(seed)
    layout = DataLayout.sequential(program)
    padded = layout.with_pad(layout.order[-1], 96)
    jobs = [
        SimJob(program=program, layout=lay, hierarchy=SMALL_HIER)
        for lay in (layout, padded)
    ]
    results = SweepExecutor(workers=2).run(jobs)
    for job, got in zip(jobs, results):
        expected = interpreter_counts(program, job.layout, SMALL_HIER)
        assert got == expected


@pytest.mark.parametrize("hierarchy", ["dm", "2way"])
def test_oracle_backend_matches_sim(hierarchy):
    """The ``oracle`` tier (sequential LRU replay of every level) equals
    the vectorized simulator end to end, and so do both over a trace
    split into several chunks, so state carries across chunk
    boundaries."""
    config = CROSSVAL_HIERARCHIES[hierarchy]
    jobs = []
    for name in ("jacobi", "expl", "linpackd"):
        kernel = get_kernel(name)
        program = kernel.program(16)
        layout = DataLayout.sequential(program)
        jobs.append(SimJob.for_kernel(kernel, program, layout, config))
        lined = list(program_line_chunks(program, layout, config, 256))
        assert len(lined) >= 5
        assert StreamingHierarchy(config).feed_all(lined).result() == (
            replay_hierarchy(config, program_trace_chunks(program, layout, 256))
        )
    sim = SweepExecutor(workers=1, backend="sim").run(jobs)
    oracle = SweepExecutor(workers=1, backend="oracle").run(jobs)
    assert oracle == sim
