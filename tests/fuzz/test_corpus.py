"""Corpus serialization round-trips and the regression replay runner.

The replay half is the point of the whole fuzz pipeline: every JSON file
under ``tests/fuzz/corpus/`` is a minimized historical divergence, and
every test run replays each one against today's code.  Failure messages
carry the case's one-line repro command, so a red replay is immediately
rerunnable outside pytest.

Replay semantics (see :mod:`repro.fuzz.corpus`): hard kinds (``trace`` /
``sim`` / ``error``) must stay clean forever; ``model`` cases pin the
predictor's error band at the recorded level to *no worse than* the
recorded band.
"""

import json

import pytest

from repro.errors import ReproError
from repro.fuzz.corpus import (
    CorpusCase,
    corpus_known_seeds,
    default_corpus_dir,
    load_case,
    load_corpus,
    save_case,
)
from repro.fuzz.generator import random_program
from repro.fuzz.harness import (
    BAND_ORDER,
    FUZZ_HIERARCHIES,
    classify_model_error,
    diff_case,
    repro_command,
)
from repro.ir.validate import check_program
from repro.service.protocol import (
    hierarchy_from_json,
    hierarchy_to_json,
    program_from_json,
    program_to_json,
)


def _committed_case_data() -> dict:
    """One committed case file's JSON, in the verbose affine spelling."""
    return json.loads((default_corpus_dir() / "model-9-dm.json").read_text())


def _drop_program(d):
    del d["program"]


def _bool_subscript(d):
    d["program"]["nests"][0]["body"][0]["refs"][0]["subscripts"][0] = True


def _unknown_field(d):
    d["program"]["nests"][0]["bogus"] = 1


def _string_cache_size(d):
    d["hierarchy"]["levels"][0]["size"] = "big"


class TestRoundTrip:
    @pytest.mark.parametrize("seed", [0, 3, 9, 17, 44])
    def test_program_json_round_trip(self, seed):
        program = random_program(seed)
        again = program_from_json(program_to_json(program))
        assert again == program

    @pytest.mark.parametrize("name", sorted(FUZZ_HIERARCHIES))
    def test_hierarchy_json_round_trip(self, name):
        hier = FUZZ_HIERARCHIES[name]
        assert hierarchy_from_json(hierarchy_to_json(hier)) == hier

    def test_case_save_load(self, tmp_path):
        case = CorpusCase(
            name="m-9-dm",
            program=random_program(9),
            hierarchy=FUZZ_HIERARCHIES["dm"],
            hierarchy_name="dm",
            kind="model",
            level="L1",
            band="blind",
            magnitude=13.3,
            seed=9,
            note="unit test",
        )
        path = save_case(tmp_path, case)
        assert path.name == "m-9-dm.json"
        loaded = load_corpus(tmp_path)
        assert loaded == [case]
        assert corpus_known_seeds(loaded) == {(9, "dm", "model")}

    def test_unknown_schema_rejected(self, tmp_path):
        case = CorpusCase(
            name="x", program=random_program(0),
            hierarchy=FUZZ_HIERARCHIES["dm"], hierarchy_name="dm",
            kind="model", level="L1", band="blind", magnitude=1.0, seed=0,
        )
        data = case.to_data()
        data["schema"] = 99
        with pytest.raises(ReproError):
            CorpusCase.from_data(data)

    @pytest.mark.parametrize("corrupt", [
        None, _drop_program, _bool_subscript, _unknown_field, _string_cache_size,
    ], ids=["truncated-json", "missing-program", "bool-subscript",
            "unknown-field", "string-cache-size"])
    def test_malformed_file_raises_naming_it(self, tmp_path, corrupt):
        path = tmp_path / "bad.json"
        if corrupt is None:
            text = json.dumps(_committed_case_data())
            path.write_text(text[: len(text) // 2])
        else:
            data = _committed_case_data()
            corrupt(data)
            path.write_text(json.dumps(data))
        with pytest.raises(ReproError, match="bad.json"):
            load_case(path)

    def test_missing_corpus_dir_is_empty(self, tmp_path):
        assert load_corpus(tmp_path / "nope") == []


CORPUS = load_corpus()
_ids = [c.name for c in CORPUS]


class TestCommittedCorpus:
    def test_corpus_directory_exists_with_cases(self):
        """The distilled corpus ships with the repo."""
        assert default_corpus_dir().is_dir()
        assert CORPUS, "expected committed corpus cases under tests/fuzz/corpus"

    @pytest.mark.parametrize("case", CORPUS, ids=_ids)
    def test_case_program_still_validates(self, case):
        check_program(case.program)

    @pytest.mark.parametrize("case", CORPUS, ids=_ids)
    def test_replay(self, case):
        """Replay one committed regression case against today's code."""
        repro = repro_command(case.seed)
        report = diff_case(
            case.seed, case.program, case.hierarchy_name, case.hierarchy
        )
        hard = [d for d in report.divergences
                if d.kind in ("trace", "sim", "error")]
        if case.kind in ("trace", "sim", "error"):
            # The historical bug must stay fixed: the hard contracts hold.
            assert not hard, (
                f"corpus case {case.name}: hard contract broken again: "
                f"{[str(d) for d in hard]}  [{repro}]"
            )
        else:
            assert case.kind == "model"
            assert not hard, (
                f"corpus case {case.name}: model case now trips a hard "
                f"contract: {[str(d) for d in hard]}  [{repro}]"
            )
            from repro.exec.jobs import SimJob
            from repro.layout.layout import DataLayout
            from repro.model import predict_job

            job = SimJob(
                case.program, DataLayout.sequential(case.program),
                case.hierarchy,
            )
            bands = {
                level: band
                for level, _, band in classify_model_error(
                    predict_job(job).result, job.run()
                )
            }
            recorded = BAND_ORDER.index(case.band)
            now = BAND_ORDER.index(bands[case.level])
            assert now <= recorded, (
                f"corpus case {case.name}: predictor band regressed at "
                f"{case.level}: {bands[case.level]} (recorded {case.band})"
                f"  [{repro}]"
            )

    def test_known_seeds_cover_every_case(self):
        triples = corpus_known_seeds(CORPUS)
        assert len(triples) == len(
            {(c.seed, c.hierarchy_name, c.kind) for c in CORPUS}
        )
        for case in CORPUS:
            assert (case.seed, case.hierarchy_name, case.kind) in triples
