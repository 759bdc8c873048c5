"""End-to-end benchmark of the reproduction: one command, four workloads.

See ``benchmarks/e2e/README.md`` for the workloads, metrics and bounds,
and ``BENCHMARK.json`` at the repository root for the declared metric set.
"""
