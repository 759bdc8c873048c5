"""Kernel fuzzing at scale: generation, differential testing, distillation.

``repro.fuzz`` closes the loop the hand-written test suite cannot: the
paper's kernels exercise a dozen loop shapes, but the predictor, the
vectorized simulators, and the trace generator claim to agree on *all*
affine programs.  This package generates random valid programs from a
seed (:mod:`.generator`), runs every cross-check between the independent
backends (:mod:`.harness`), minimizes whatever disagrees (:mod:`.shrink`),
and commits the minimized cases as a replayable regression corpus
(:mod:`.corpus`).  The ``ext_fuzz`` experiment verb drives campaigns from
the CLI.
"""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.fuzz.generator": (
        "FuzzConfig", "random_program", "program_stream", "fuzzed_workloads",
    ),
    "repro.fuzz.harness": (
        "MODEL_BANDS", "FUZZ_HIERARCHIES", "Divergence", "CaseReport",
        "CampaignReport", "repro_command", "diff_case", "oracle_simulate",
        "run_campaign",
    ),
    "repro.fuzz.shrink": ("shrink_program", "tighten_arrays"),
    "repro.fuzz.corpus": (
        "CorpusCase", "save_case", "load_corpus", "corpus_known_seeds",
        "default_corpus_dir",
    ),
})
