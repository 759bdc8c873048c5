"""Property tests of the closed-form miss predictor (hypothesis).

Four invariants the predictor must honor to be safe inside
predict-then-verify search:

* **determinism** -- identical inputs give identical predictions (the
  tier-one ranking must be a pure function of the layout);
* **monotonicity in cache size** on conflict-free layouts over doubling
  size ladders (``C | 2C``): a bigger cache of the same line size can
  only help -- capacity, residency, and arc exploitation are all
  provably monotone when the smaller size divides the larger;
* **exactness on resonance** -- the paper's severe-conflict closed form
  (ping-pong layouts miss every iteration) is a case the predictor must
  get *exactly* right, per level, against the simulator;
* **rank agreement** -- over small pad spaces where simulation is cheap,
  the predicted objective must order layouts like the simulated one
  (Spearman >= 0.8), which is the actual contract the search strategy
  relies on.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import DataLayout, ProgramBuilder, simulate_program
from repro.cache.config import CacheConfig, HierarchyConfig
from repro.model import spearman
from repro.search.objective import miss_cost_objective

from tests.conftest import predict
from tests.search.conftest import build_pingpong, build_tiny_hier

OBJECTIVE = miss_cost_objective()


def vector_program(n: int, narrays: int):
    b = ProgramBuilder("vecs")
    handles = [b.array(f"V{k}", (n,)) for k in range(narrays)]
    (i,) = b.vars("i")
    b.nest([b.loop(i, 1, n)], [b.use(reads=[h[i] for h in handles], flops=1)])
    return b.build()


def single_level(size: int, line: int) -> HierarchyConfig:
    return HierarchyConfig(
        levels=(CacheConfig(size=size, line_size=line, name="L1"),),
        memory_cycles=50.0,
    )


class TestDeterminism:
    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(64, 1024),
        narrays=st.integers(2, 4),
        pads=st.lists(st.integers(0, 16), min_size=3, max_size=3),
    )
    def test_same_inputs_same_prediction(self, n, narrays, pads):
        p = vector_program(n, narrays)
        hier = build_tiny_hier()
        layout = DataLayout.sequential(p)
        for name, k in zip(layout.order[1:], pads):
            layout = layout.add_pad(name, 32 * k)
        assert predict(p, layout, hier) == predict(p, layout, hier)


class TestMonotoneInCacheSize:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(64, 2048),
        narrays=st.integers(2, 3),
        pads=st.lists(st.integers(0, 8), min_size=2, max_size=2),
        size=st.sampled_from([512, 1024, 2048]),
        doublings=st.integers(1, 3),
    )
    def test_doubling_the_cache_never_adds_misses(
        self, n, narrays, pads, size, doublings
    ):
        p = vector_program(n, narrays)
        layout = DataLayout.sequential(p)
        for name, k in zip(layout.order[1:], pads):
            layout = layout.add_pad(name, 32 * k)
        small = predict(p, layout, single_level(size, 32))
        big = predict(
            p, layout, single_level(size << doublings, 32)
        )
        # conflict structure can legitimately differ between the two
        # mapping periods; monotonicity is claimed for conflict-free
        # layouts (where only capacity/spatial terms remain).
        assume(all(p.conflict_misses == 0 for p in small.predictions) and all(p.conflict_misses == 0 for p in big.predictions))
        assert big.predictions[0].misses <= small.predictions[0].misses


class TestResonantExactness:
    @settings(max_examples=25, deadline=None)
    @given(
        blocks=st.integers(1, 4),
        extra_periods=st.integers(0, 2),
    )
    def test_pingpong_matches_simulator_exactly(self, blocks, extra_periods):
        """A and B separated by a multiple of the cache size thrash
        identically however many cache-sized blocks apart they sit."""
        hier = build_tiny_hier()
        n = (hier.l1.size // 8) * blocks  # arrays span whole cache multiples
        p = build_pingpong(n)
        layout = DataLayout.sequential(p).add_pad(
            "B", hier.l1.size * extra_periods
        )
        pred = predict(p, layout, hier)
        sim = simulate_program(p, layout, hier)
        assert not all(p.conflict_misses == 0 for p in pred.predictions)
        for pl, sl in zip(pred.levels, sim.levels):
            assert (pl.accesses, pl.misses) == (sl.accesses, sl.misses)


class TestRankAgreement:
    @settings(max_examples=10, deadline=None)
    @given(n=st.sampled_from([128, 256, 384]))
    def test_spearman_on_small_pad_space(self, n):
        """Over one array's whole line-granular pad axis, predicted and
        simulated objectives must agree in rank (Spearman >= 0.8)."""
        hier = build_tiny_hier()
        p = build_pingpong(n)
        base = DataLayout.sequential(p)
        predicted, simulated = [], []
        for k in range(8):
            layout = base.add_pad("B", k * hier.l2.line_size)
            predicted.append(
                OBJECTIVE(predict(p, layout, hier).result, hier)
            )
            simulated.append(
                OBJECTIVE(simulate_program(p, layout, hier), hier)
            )
        assert spearman(predicted, simulated) >= 0.8
