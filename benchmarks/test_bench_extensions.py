"""Benchmarks for the extension experiments (paper prose claims)."""

from repro.experiments import ext_assoc, ext_timetile, ext_tlb


def test_bench_associativity(benchmark):
    result = benchmark.pedantic(
        lambda: ext_assoc.measure_claim(quick=True, programs=["dot", "su2cor"]),
        rounds=2, iterations=1,
    )
    # Direct-mapped-targeted PAD still helps the associative caches.
    for r in result.rates.values():
        assert r[("padded", 2)] <= r[("orig", 2)] + 1e-9


def test_bench_timetile(benchmark):
    result = benchmark.pedantic(
        lambda: ext_timetile.run(quick=True), rounds=1, iterations=1
    )
    assert result.rows["L2 block"][2] < result.rows["untiled"][2]


def test_bench_tlb(benchmark):
    result = benchmark.pedantic(
        lambda: ext_tlb.run(quick=True, versions=("Orig", "L1")),
        rounds=1, iterations=1,
    )
    assert set(result.series) == {"Orig", "L1"}
