"""Experiment harnesses regenerating every table and figure of the paper.

One module per artifact:

* :mod:`repro.experiments.table1_programs` -- Table 1 (program inventory);
* :mod:`repro.experiments.fig9_pad`        -- Figure 9 (PAD vs MULTILVLPAD);
* :mod:`repro.experiments.fig10_grouppad`  -- Figure 10 (GROUPPAD +/- L2MAXPAD);
* :mod:`repro.experiments.fig11_sweep`     -- Figure 11 (problem-size sweep);
* :mod:`repro.experiments.fig12_fusion`    -- Figure 12 (fusion deltas);
* :mod:`repro.experiments.fig13_tiling`    -- Figure 13 (tiling MFLOPS);
* :mod:`repro.experiments.timing`          -- wall-clock sanity series.

Run them all from the command line::

    python -m repro.experiments all --quick

Every ``run()`` accepts ``quick=True`` for a reduced-size pass (used by the
benchmark suite) and returns a structured result whose ``format()`` string
prints the same rows/series the paper's figure reports.
"""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.experiments.common": (
        "CYCLE_MODEL_NOTE", "VersionResult", "improvement_pct",
        "simulate_kernel_layout",
    ),
})
