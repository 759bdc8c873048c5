"""The call census (``benchmarks/census.py``) against runs whose reach is known."""

import sys

from benchmarks.census import KEPT, REASONS, package_functions, take_census

EXPERIMENTS = [sys.executable, "-m", "repro.experiments"]


def test_table1_reaches_its_run_and_not_the_shrinker():
    def table1(run, work, env):
        run(EXPERIMENTS + ["table1", "--quick", "--no-cache", "--workers", "1"])

    census = take_census(table1)
    assert census.is_reached("repro.experiments.table1_programs", "run")
    assert not census.is_reached("repro.fuzz.shrink", "shrink_program")
    assert "repro.experiments.table1_programs" in census.format()


def test_pool_workers_are_counted():
    """``run_shared`` runs only in forked pool workers."""
    def timetile(run, work, env):
        run(EXPERIMENTS + ["timetile", "--quick", "--no-cache", "--workers", "2"])

    census = take_census(timetile)
    assert census.is_reached("repro.exec.scheduler", "run_shared")


def test_every_kept_entry_names_a_function_and_a_reason():
    """A deleted or renamed function cannot leave a stale ``KEPT`` entry."""
    names = {fn.name for fn in package_functions()}
    assert sorted(set(KEPT) - names) == []
    assert {reason for reason, _ in KEPT.values()} <= set(REASONS)
    assert all(note for _, note in KEPT.values())
