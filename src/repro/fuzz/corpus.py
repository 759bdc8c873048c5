"""The distilled regression corpus: minimized divergences as JSON.

A fuzz campaign's output only matters if what it finds becomes permanent:
every divergence worth keeping is shrunk (:mod:`repro.fuzz.shrink`),
serialized with its provenance and classification, and committed under
``tests/fuzz/corpus/``.  ``tests/fuzz/test_corpus.py`` replays every file
on every test run, so a blind spot found once can never silently return.

The JSON schema is complete and self-describing -- the program and the
hierarchy in the service wire format (:mod:`repro.service.protocol`),
plus provenance and the recorded divergence -- so a corpus case replays
identically even if the generator that produced it has long since
changed.  Older cases spell every affine expression out as
``{"const": c, "terms": {"i": k, ...}}``; the wire decoder reads both
that and the compact forms new cases are written in.

Replay semantics per kind:

* ``trace`` / ``sim`` / ``error`` cases assert the exact contracts hold
  *now* (the historical bug stays fixed);
* ``model`` cases assert the predictor's error band at the recorded level
  is **no worse** than the recorded band -- the model may improve past a
  committed blind spot, never regress beneath it.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass

from repro.cache.config import HierarchyConfig
from repro.errors import ReproError
from repro.ir.program import Program

__all__ = [
    "SCHEMA_VERSION",
    "CorpusCase",
    "save_case",
    "load_case",
    "load_corpus",
    "corpus_known_seeds",
    "default_corpus_dir",
]

SCHEMA_VERSION = 1


def default_corpus_dir() -> pathlib.Path:
    """``tests/fuzz/corpus`` of the source checkout (may not exist)."""
    return (
        pathlib.Path(__file__).resolve().parents[3] / "tests" / "fuzz" / "corpus"
    )


# -- corpus cases ------------------------------------------------------------

@dataclass(frozen=True)
class CorpusCase:
    """One committed, minimized regression case."""

    name: str
    program: Program
    hierarchy: HierarchyConfig
    hierarchy_name: str
    kind: str  # "trace" | "sim" | "model" | "error"
    level: str
    band: str
    magnitude: float
    seed: int  # the case seed of the campaign that found it
    note: str = ""

    def file_name(self) -> str:
        return f"{self.name}.json"

    def to_data(self) -> dict:
        # lazy here and in from_data: the wire codec loads the kernel
        # registry and repro.driver
        from repro.service.protocol import hierarchy_to_json, program_to_json

        return {
            "schema": SCHEMA_VERSION,
            "name": self.name,
            "provenance": {"seed": self.seed, "hierarchy": self.hierarchy_name},
            "divergence": {
                "kind": self.kind,
                "level": self.level,
                "band": self.band,
                "magnitude": self.magnitude,
            },
            "note": self.note,
            "hierarchy": hierarchy_to_json(self.hierarchy),
            "program": program_to_json(self.program),
        }

    @classmethod
    def from_data(cls, data: dict) -> "CorpusCase":
        """Decode one case; any malformed field raises :class:`ReproError`."""
        from repro.service.protocol import hierarchy_from_json, program_from_json

        if not isinstance(data, dict):
            raise ReproError("corpus case: expected a JSON object")
        if data.get("schema") != SCHEMA_VERSION:
            raise ReproError(
                f"corpus case {data.get('name')!r}: unsupported schema "
                f"{data.get('schema')!r} (expected {SCHEMA_VERSION})"
            )
        try:
            div = data["divergence"]
            prov = data["provenance"]
            return cls(
                name=data["name"],
                program=program_from_json(data["program"]),
                hierarchy=hierarchy_from_json(data["hierarchy"]),
                hierarchy_name=prov["hierarchy"],
                kind=div["kind"],
                level=div.get("level", "-"),
                band=div.get("band", "mismatch"),
                magnitude=float(div.get("magnitude", 0.0)),
                seed=int(prov["seed"]),
                note=data.get("note", ""),
            )
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ReproError(
                f"corpus case {data.get('name')!r}: malformed field ({exc!r})"
            ) from None


def save_case(directory: str | pathlib.Path, case: CorpusCase) -> pathlib.Path:
    """Write one case as pretty, diff-stable JSON; returns the path."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / case.file_name()
    path.write_text(
        json.dumps(case.to_data(), indent=2, sort_keys=True) + "\n"
    )
    return path


def load_case(path: str | pathlib.Path) -> CorpusCase:
    """Read one case file; a malformed one raises a :class:`ReproError`
    that names the file."""
    path = pathlib.Path(path)
    try:
        return CorpusCase.from_data(json.loads(path.read_text()))
    except (json.JSONDecodeError, ReproError) as exc:
        raise ReproError(f"corpus file {path}: {exc}") from None


def load_corpus(directory: str | pathlib.Path | None = None) -> list[CorpusCase]:
    """Every committed case, sorted by file name (missing dir -> empty)."""
    directory = pathlib.Path(directory) if directory else default_corpus_dir()
    if not directory.is_dir():
        return []
    return [load_case(p) for p in sorted(directory.glob("*.json"))]


def corpus_known_seeds(
    cases: list[CorpusCase],
) -> set[tuple[int, str, str]]:
    """The ``(seed, hierarchy, kind)`` triples a campaign treats as known."""
    return {(c.seed, c.hierarchy_name, c.kind) for c in cases}
