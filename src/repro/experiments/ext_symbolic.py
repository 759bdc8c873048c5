"""Extension: the predictor's exact levels vs. the trace simulator.

The exactness gate of the one analytic estimator
(:func:`repro.model.predict_job`): every level it flags ``exact`` claims
a miss count bit-for-bit equal to the simulator's.  Two artifacts:

**Agreement table** -- the Table 1 pad sweep (the same jobs as Figure 9:
every kernel in ``orig`` / ``L1 Opt`` / ``L1&L2 Opt`` layouts) predicted
once and simulated once by a fresh storeless ``sim`` executor, with
per-level miss counts side by side.  Rows flagged *exact* must agree
bit-for-bit -- any disagreement is a bug in the no-eviction proof,
counted in ``exact_disagreements`` and gated to zero in CI.  Estimated
rows show the relative error and the downgrade reason, which is the
honest picture of where the closed form is authoritative and where it
only ranks.  The wall-clock of the two passes gives the measured
speedup; it depends on the simulator's speed as much as on the
predictor's, so nothing gates on it.

**Fuzz cross-validation** -- a fixed-seed sample of the fuzzed workload
population (:func:`repro.fuzz.fuzzed_workloads`) predicted against small
conflict-prone hierarchies and one roomy hierarchy; every (job,
hierarchy) pair exact at every level is simulated and compared
bit-for-bit.  The trailing ``[symbolic] smoke`` line condenses the CI
gate: ``exact_disagreements=0`` over the whole sample.

See ``docs/model.md`` ("When the estimate becomes exact") for the
exactness rules.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.cache.config import CacheConfig, HierarchyConfig
from repro.exec.executor import SweepExecutor
from repro.exec.jobs import SimJob
from repro.fuzz.generator import fuzzed_workloads
from repro.fuzz.harness import FUZZ_HIERARCHIES

__all__ = ["run", "SymbolicResult", "CROSSVAL_HIERARCHIES"]


def _crossval_hierarchies() -> dict[str, HierarchyConfig]:
    """Fuzz cross-validation hierarchies: the campaign's conflict-prone
    direct-mapped and associative pairs, plus a roomy direct-mapped pair
    sized so a healthy fraction of fuzzed programs classifies exact."""
    return {
        "dm": FUZZ_HIERARCHIES["dm"],
        "2way": FUZZ_HIERARCHIES["2way"],
        "roomy": HierarchyConfig(
            levels=(
                CacheConfig(size=16 * 1024, line_size=32, name="L1"),
                CacheConfig(size=64 * 1024, line_size=64, name="L2"),
            )
        ),
    }


CROSSVAL_HIERARCHIES = _crossval_hierarchies()


@dataclass(frozen=True)
class AgreementRow:
    """One (job, level) line of the pad-sweep agreement table."""

    program: str
    version: str
    level: str
    sim_misses: int
    sym_misses: float
    exact: bool
    note: str = ""

    @property
    def rel_err(self) -> float:
        return abs(self.sym_misses - self.sim_misses) / max(1, self.sim_misses)

    @property
    def agrees(self) -> bool:
        return int(round(self.sym_misses)) == self.sim_misses


@dataclass
class SymbolicResult:
    """Everything ``ext_symbolic`` measured, formatted for the report."""

    rows: list[AgreementRow] = field(default_factory=list)
    sym_wall: float = 0.0
    sim_wall: float = 0.0
    seed: int = 0
    programs: int = 0
    fuzz_cases: int = 0
    fuzz_exact: int = 0
    fuzz_checked: int = 0
    fuzz_downgraded: int = 0
    exact_disagreements: int = 0

    @property
    def speedup(self) -> float:
        return self.sim_wall / self.sym_wall if self.sym_wall > 0 else float("inf")

    def smoke_line(self) -> str:
        return (
            f"[symbolic] smoke seed={self.seed} programs={self.programs} "
            f"cases={self.fuzz_cases} exact={self.fuzz_exact} "
            f"checked={self.fuzz_checked} "
            f"exact_disagreements={self.exact_disagreements} "
            f"downgraded={self.fuzz_downgraded} "
            f"speedup={self.speedup:.1f}x"
        )

    def format(self) -> str:
        lines = [
            "Predictor exact levels vs. simulator -- Table 1 pad sweep",
            f"  predictor wall {self.sym_wall:.2f}s, simulator wall "
            f"{self.sim_wall:.2f}s, speedup {self.speedup:.1f}x",
            "",
            f"  {'program':<10} {'version':<10} {'lvl':<4} "
            f"{'sim misses':>12} {'predicted':>14} {'exact':>5} "
            f"{'relerr':>7}  note",
        ]
        for r in self.rows:
            lines.append(
                f"  {r.program:<10} {r.version:<10} {r.level:<4} "
                f"{r.sim_misses:>12} {r.sym_misses:>14.0f} "
                f"{'yes' if r.exact else 'no':>5} "
                f"{r.rel_err:>6.1%}  {r.note}"
            )
        exact_rows = [r for r in self.rows if r.exact]
        lines += [
            "",
            f"  exact rows: {len(exact_rows)}/{len(self.rows)}, "
            f"bitwise disagreements on exact rows: "
            f"{sum(1 for r in exact_rows if not r.agrees)}",
            "",
            "Fuzz cross-validation "
            f"(seed={self.seed}, {self.programs} programs x "
            f"{len(CROSSVAL_HIERARCHIES)} hierarchies)",
            f"  exact at every level: {self.fuzz_exact}/{self.fuzz_cases} "
            f"(downgraded {self.fuzz_downgraded}), "
            f"simulated+compared: {self.fuzz_checked}, "
            f"disagreements: {self.exact_disagreements}",
            "",
            self.smoke_line(),
        ]
        return "\n".join(lines)


def _pad_sweep_agreement(
    quick: bool, workers: int | None, result: SymbolicResult
) -> None:
    """Run the Figure 9 job list through both engines and tabulate."""
    # Imported by the run, not the module: the fuzz workloads import
    # this module for CROSSVAL_HIERARCHIES and need neither.
    from repro.experiments.fig9_pad import build_jobs
    from repro.model import predict_job

    jobs = build_jobs(quick)

    t0 = time.perf_counter()
    predictions = [predict_job(job) for job in jobs]
    result.sym_wall = time.perf_counter() - t0

    sim_ex = SweepExecutor(workers=workers, store=None, backend="sim")
    t0 = time.perf_counter()
    sim_results = sim_ex.run(jobs)
    result.sim_wall = time.perf_counter() - t0

    for job, sim, predicted in zip(jobs, sim_results, predictions):
        name, version = job.tag[0], job.tag[1]
        for sim_lv, pred in zip(sim.levels, predicted.predictions):
            row = AgreementRow(
                program=name,
                version=version,
                level=sim_lv.name,
                sim_misses=sim_lv.misses,
                sym_misses=pred.misses,
                exact=pred.exact,
                note=pred.note,
            )
            result.rows.append(row)
            if row.exact and not row.agrees:
                result.exact_disagreements += 1


def _fuzz_crossval(
    seed: int,
    count: int,
    executor: SweepExecutor | None,
    workers: int | None,
    result: SymbolicResult,
) -> None:
    """Predict fuzzed workloads; simulate and bit-compare the exact ones."""
    from repro.model import predict_job

    workloads = fuzzed_workloads(seed, count)
    result.seed = seed
    result.programs = len(workloads)

    exact_jobs: list[SimJob] = []
    expectations = []
    for case_seed, program, layout in workloads:
        for hier_name, hier in CROSSVAL_HIERARCHIES.items():
            result.fuzz_cases += 1
            job = SimJob(
                program, layout, hier, tag=("symbolic", case_seed, hier_name)
            )
            predicted = predict_job(job)
            if not predicted.exact:
                result.fuzz_downgraded += 1
                continue
            result.fuzz_exact += 1
            exact_jobs.append(job)
            expectations.append(predicted.result)

    if executor is None:
        executor = SweepExecutor(workers=workers, store=None)
    sims = executor.run(exact_jobs, backend="sim")
    for expected, sim in zip(expectations, sims):
        result.fuzz_checked += 1
        same = expected.total_refs == sim.total_refs and all(
            a.misses == b.misses and a.accesses == b.accesses
            for a, b in zip(expected.levels, sim.levels)
        )
        if not same:
            result.exact_disagreements += 1


def run(
    quick: bool = False,
    executor: SweepExecutor | None = None,
    workers: int | None = None,
    seed: int = 0,
    count: int | None = None,
) -> SymbolicResult:
    """The full experiment: pad-sweep agreement + fuzz cross-validation.

    The wall-clock comparison always uses fresh, storeless executors (a
    cache hit would fake the speedup); the fuzz cross-validation's
    simulations go through the shared ``executor`` so CI reruns stay
    cheap.  ``count`` defaults to 200 programs (60 with ``--quick``).
    """
    if count is None:
        count = 60 if quick else 200
    result = SymbolicResult()
    sweep_workers = workers if workers is not None else (
        executor.workers if executor is not None else None
    )
    _pad_sweep_agreement(quick, sweep_workers, result)
    _fuzz_crossval(seed, count, executor, sweep_workers, result)
    return result
