"""The differential fuzz harness: predictor vs. simulator vs. oracles.

Each generated program is pushed through every cross-check the repo's
correctness story rests on, and disagreements are recorded as typed,
classified :class:`Divergence` records:

* ``trace`` -- the vectorized trace generator vs. the bounds-checking
  Python interpreter (byte equality of the address stream);
* ``sim`` -- the production hierarchy simulation (vectorized
  direct-mapped / k-way paths via :class:`~repro.exec.jobs.SimJob`) vs.
  the sequential oracle hierarchy
  (:func:`~repro.cache.assoc.replay_hierarchy`; exact per-level
  access/miss equality);
* ``model`` -- the closed-form predictor vs. the simulator, classified
  by per-level relative miss error into magnitude bands
  (``exact <= 1% < close <= 10% < coarse <= 1x < loose <= 10x < blind``);
  only ``blind`` counts as a divergence worth distilling;
* ``error`` -- any component raising where it should have produced a
  number.

The exact pairs (``trace``, ``sim``) are hard contracts: a single
divergence is a bug.  The ``model`` band is an accuracy envelope: blind
spots are expected occasionally, get shrunk and committed to the
regression corpus, and the CI gate requires every one found by the
fixed-seed smoke campaign to already be a committed (minimized) case.

Every case knows its one-line repro command (:func:`repro_command`), so
a failure at campaign scale collapses to ``ext_fuzz --seed N --count 1``.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field

import numpy as np

from repro.cache.assoc import replay_hierarchy
from repro.cache.config import CacheConfig, HierarchyConfig
from repro.cache.stats import SimulationResult
from repro.errors import ReproError
from repro.exec.executor import SweepExecutor
from repro.exec.jobs import SimJob
from repro.fuzz.generator import FuzzConfig, program_stream
from repro.ir.program import Program
from repro.layout.layout import DataLayout
from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer
from repro.trace.generator import generate_trace
from repro.trace.interpreter import interpret_program

__all__ = [
    "MODEL_BANDS",
    "FUZZ_HIERARCHIES",
    "Divergence",
    "CaseReport",
    "CampaignReport",
    "repro_command",
    "classify_model_error",
    "oracle_simulate",
    "diff_case",
    "run_campaign",
]

# Relative per-level miss error -> band name, tightest first.  "blind"
# (the open-ended band) is the only one treated as a divergence.  The
# bounds are calibrated against the predictor's measured error
# distribution on fuzzed programs (median ~0.25, p99 ~7x): "blind" means
# beyond the ~99.5th percentile -- a statistically exceptional miss of
# the envelope, not the model's routine coarseness on random kernels.
MODEL_BANDS: tuple[tuple[float, str], ...] = (
    (0.01, "exact"),
    (0.10, "close"),
    (1.00, "coarse"),
    (10.0, "loose"),
    (float("inf"), "blind"),
)

BAND_ORDER = tuple(name for _, name in MODEL_BANDS)


def _hier(l1_kb: int, l1_line: int, l1_k: int, l2_kb: int, l2_line: int,
          l2_k: int) -> HierarchyConfig:
    return HierarchyConfig(
        levels=(
            CacheConfig(l1_kb * 1024, l1_line, l1_k, "L1", 1.0),
            CacheConfig(l2_kb * 1024, l2_line, l2_k, "L2", 6.0),
        ),
        memory_cycles=50.0,
    )


# Deliberately tiny caches: fuzzed arrays are a few KB, so conflict and
# capacity behaviour -- the regimes the predictor models -- actually
# trigger.  Keys name the associativity shape.
FUZZ_HIERARCHIES: dict[str, HierarchyConfig] = {
    "dm": _hier(1, 32, 1, 8, 64, 1),
    "2way": _hier(1, 32, 2, 8, 64, 4),
    "4way": _hier(2, 64, 4, 16, 64, 8),
}

QUICK_HIERARCHY_NAMES = ("dm", "2way")


def repro_command(seed: int) -> str:
    """The one-line repro for a fuzz case found at campaign scale."""
    return (
        "PYTHONPATH=src python -m repro.experiments ext_fuzz "
        f"--seed {seed} --count 1"
    )


@dataclass(frozen=True)
class Divergence:
    """One classified disagreement between two backends on one case."""

    kind: str  # "trace" | "sim" | "model" | "error"
    level: str  # cache level name, or "-" for whole-trace kinds
    magnitude: float  # relative error (model) or absolute delta (sim/trace)
    band: str  # MODEL_BANDS name, or "mismatch" for exact contracts
    detail: str = ""

    def __str__(self) -> str:
        return (
            f"{self.kind}@{self.level} band={self.band} "
            f"magnitude={self.magnitude:.4g} {self.detail}".rstrip()
        )


@dataclass(frozen=True)
class CaseReport:
    """Everything the harness learned about one (program, hierarchy) case."""

    seed: int
    program_name: str
    hierarchy: str
    refs: int
    model_bands: tuple[tuple[str, str], ...]  # (level, band) per level
    divergences: tuple[Divergence, ...] = ()
    known: bool = False  # already covered by a committed corpus case

    @property
    def diverged(self) -> bool:
        return bool(self.divergences)

    def repro(self) -> str:
        return repro_command(self.seed)

    def describe(self) -> str:
        parts = "; ".join(str(d) for d in self.divergences) or "clean"
        return (
            f"seed={self.seed} hierarchy={self.hierarchy} "
            f"refs={self.refs} {parts}  [{self.repro()}]"
        )


def classify_model_error(predicted: SimulationResult,
                         simulated: SimulationResult) -> list[tuple[str, float, str]]:
    """Per-level ``(level, relative_error, band)`` of a prediction.

    Error is ``|pred - sim| / max(sim, 1)`` on miss counts -- the
    ``max(..., 1)`` keeps conflict-free levels (0 simulated misses) from
    reading as infinite error when the predictor charges a handful.
    """
    out = []
    for p, s in zip(predicted.levels, simulated.levels):
        err = abs(p.misses - s.misses) / max(s.misses, 1)
        band = next(name for bound, name in MODEL_BANDS if err <= bound)
        out.append((s.name, err, band))
    return out


def oracle_simulate(trace: np.ndarray,
                    hierarchy: HierarchyConfig) -> SimulationResult:
    """Reference hierarchy simulation: sequential LRU replay at every level.

    The whole trace as one chunk of
    :func:`~repro.cache.assoc.replay_hierarchy`.
    """
    return replay_hierarchy(hierarchy, [trace])


def diff_case(
    seed: int,
    program: Program,
    hierarchy_name: str,
    hierarchy: HierarchyConfig,
    vec_result: SimulationResult | None = None,
    layout: DataLayout | None = None,
) -> CaseReport:
    """Run every cross-check on one case; ``vec_result`` may be precomputed
    (campaigns batch the vectorized simulations through the executor)."""
    layout = layout or DataLayout.sequential(program)
    divergences: list[Divergence] = []

    trace = generate_trace(program, layout)
    try:
        oracle_trace = interpret_program(program, layout, check_bounds=True)
    except Exception as exc:  # bounds violation or interpreter crash
        oracle_trace = None
        divergences.append(
            Divergence("error", "-", float("inf"), "mismatch",
                       f"interpreter raised: {exc!r}")
        )
    if oracle_trace is not None and not np.array_equal(trace, oracle_trace):
        first = int(np.argmax(trace[: oracle_trace.size] !=
                              oracle_trace[: trace.size])) \
            if trace.size == oracle_trace.size else -1
        divergences.append(
            Divergence(
                "trace", "-",
                float(abs(trace.size - oracle_trace.size)) or 1.0,
                "mismatch",
                f"generator vs interpreter differ "
                f"(lengths {trace.size}/{oracle_trace.size}, "
                f"first mismatch index {first})",
            )
        )

    if vec_result is None:
        vec_result = SimJob(program, layout, hierarchy).run()

    sim_reference = oracle_simulate(
        oracle_trace if oracle_trace is not None else trace, hierarchy
    )
    for vec_lv, orc_lv in zip(vec_result.levels, sim_reference.levels):
        if (vec_lv.accesses, vec_lv.misses) != (orc_lv.accesses, orc_lv.misses):
            divergences.append(
                Divergence(
                    "sim", orc_lv.name,
                    float(abs(vec_lv.misses - orc_lv.misses)
                          + abs(vec_lv.accesses - orc_lv.accesses)),
                    "mismatch",
                    f"vec {vec_lv.accesses}/{vec_lv.misses} vs "
                    f"oracle {orc_lv.accesses}/{orc_lv.misses} "
                    f"(accesses/misses)",
                )
            )

    model_bands: list[tuple[str, str]] = []
    try:
        from repro.model import predict_job

        predicted = predict_job(SimJob(program, layout, hierarchy)).result
        for level, err, band in classify_model_error(predicted, vec_result):
            model_bands.append((level, band))
            if band == "blind":
                pred_misses = predicted.level(level).misses
                sim_misses = vec_result.level(level).misses
                divergences.append(
                    Divergence(
                        "model", level, err, band,
                        f"predicted {pred_misses} vs simulated {sim_misses} misses",
                    )
                )
    except Exception as exc:
        divergences.append(
            Divergence("error", "-", float("inf"), "mismatch",
                       f"predictor raised: {exc!r}")
        )

    return CaseReport(
        seed=seed,
        program_name=program.name,
        hierarchy=hierarchy_name,
        refs=vec_result.total_refs,
        model_bands=tuple(model_bands),
        divergences=tuple(divergences),
    )


@dataclass
class CampaignReport:
    """What one fuzz campaign covered and what it found."""

    seed: int
    count: int
    hierarchy_names: tuple[str, ...]
    cases: list[CaseReport] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def programs(self) -> int:
        return self.count

    @property
    def total_refs(self) -> int:
        return sum(c.refs for c in self.cases)

    def divergent_cases(self) -> list[CaseReport]:
        return [c for c in self.cases if c.diverged]

    def count_kind(self, kind: str) -> int:
        return sum(
            1 for c in self.cases for d in c.divergences if d.kind == kind
        )

    @property
    def unminimized(self) -> int:
        """Divergent cases not yet covered by a committed corpus case."""
        return sum(1 for c in self.divergent_cases() if not c.known)

    def band_histogram(self) -> dict[str, dict[str, int]]:
        """level -> band -> case count, over every case's model bands."""
        hist: dict[str, dict[str, int]] = {}
        for case in self.cases:
            for level, band in case.model_bands:
                hist.setdefault(level, {b: 0 for b in BAND_ORDER})[band] += 1
        return hist

    def smoke_line(self) -> str:
        """One greppable line condensing the CI acceptance check."""
        return (
            f"[fuzz] smoke seed={self.seed} programs={self.programs} "
            f"cases={len(self.cases)} refs={self.total_refs} "
            f"trace_div={self.count_kind('trace')} "
            f"sim_div={self.count_kind('sim')} "
            f"errors={self.count_kind('error')} "
            f"model_blind={self.count_kind('model')} "
            f"unminimized={self.unminimized}"
        )


def run_campaign(
    seed: int,
    count: int,
    config: FuzzConfig | None = None,
    hierarchies: dict[str, HierarchyConfig] | None = None,
    executor: SweepExecutor | None = None,
    known_seeds: set[tuple[int, str, str]] | None = None,
) -> CampaignReport:
    """Fuzz ``count`` programs through every differential pair.

    The vectorized simulations of all (program, hierarchy) cases run as
    one batched :class:`SweepExecutor` sweep (parallel, memoized); the
    pure-Python oracles and the predictor run in-process per case.
    ``known_seeds`` marks divergences already distilled into the corpus:
    ``(case_seed, hierarchy_name, kind)`` triples
    (:func:`repro.fuzz.corpus.corpus_known_seeds`).
    """
    if count < 1:
        raise ReproError(f"count must be >= 1, got {count}")
    hierarchies = hierarchies or FUZZ_HIERARCHIES
    executor = executor or SweepExecutor(workers=1)
    known_seeds = known_seeds or set()
    tracer = get_tracer()
    t0 = time.perf_counter()

    report = CampaignReport(
        seed=seed, count=count, hierarchy_names=tuple(hierarchies)
    )
    with tracer.span("fuzz.campaign", cat="fuzz", seed=seed, count=count,
                     hierarchies=len(hierarchies)):
        cases = [
            (case_seed, program) for case_seed, program in
            program_stream(seed, count, config)
        ]
        jobs = [
            SimJob(program, DataLayout.sequential(program), hier,
                   tag=("fuzz", case_seed, name))
            for case_seed, program in cases
            for name, hier in hierarchies.items()
        ]
        # Force the simulator regardless of the executor's default
        # backend: the campaign's whole point is differential testing of
        # the *vectorized simulator* against the oracles.
        vec_results = executor.run(jobs, backend="sim")

        i = 0
        for case_seed, program in cases:
            for name, hier in hierarchies.items():
                case = diff_case(case_seed, program, name, hier,
                                 vec_result=vec_results[i])
                i += 1
                if case.diverged and all(
                    (case_seed, name, d.kind) in known_seeds
                    for d in case.divergences
                ):
                    case = dataclasses.replace(case, known=True)
                if tracer.enabled and case.diverged:
                    tracer.event("fuzz.divergence", cat="fuzz",
                                 seed=case_seed, hierarchy=name,
                                 kinds=",".join(d.kind for d in case.divergences))
                report.cases.append(case)

    report.wall_seconds = time.perf_counter() - t0
    m = get_metrics()
    m.counter("fuzz.programs").inc(count)
    m.counter("fuzz.cases").inc(len(report.cases))
    m.counter("fuzz.refs").inc(report.total_refs)
    m.counter("fuzz.divergences").inc(len(report.divergent_cases()))
    m.counter("fuzz.model_blind").inc(report.count_kind("model"))
    m.counter("fuzz.sim_divergences").inc(
        report.count_kind("sim") + report.count_kind("trace")
    )
    return report
