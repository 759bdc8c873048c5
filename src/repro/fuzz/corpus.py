"""The distilled regression corpus: minimized divergences as JSON.

A fuzz campaign's output only matters if what it finds becomes permanent:
every divergence worth keeping is shrunk (:mod:`repro.fuzz.shrink`),
serialized with its provenance and classification, and committed under
``tests/fuzz/corpus/``.  ``tests/fuzz/test_corpus.py`` replays every file
on every test run, so a blind spot found once can never silently return.

The JSON schema is complete and self-describing -- arrays, loops with
affine bounds, statements, hierarchy geometry, the recorded divergence --
so a corpus case replays identically even if the generator that produced
it has long since changed.  Affine expressions serialize as
``{"const": c, "terms": {"i": k, ...}}``.

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

from repro.cache.config import CacheConfig, HierarchyConfig
from repro.errors import ReproError
from repro.ir.affine import AffineExpr
from repro.ir.arrays import ArrayDecl
from repro.ir.loops import Loop, LoopNest, Statement
from repro.ir.program import Program
from repro.ir.refs import ArrayRef

__all__ = [
    "SCHEMA_VERSION",
    "CorpusCase",
    "affine_to_data",
    "affine_from_data",
    "program_to_data",
    "program_from_data",
    "hierarchy_from_data",
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


# -- affine / IR serialization ----------------------------------------------

def affine_to_data(expr: AffineExpr) -> dict:
    return {"const": expr.constant, "terms": expr.terms}


def affine_from_data(data: dict) -> AffineExpr:
    return AffineExpr(dict(data.get("terms", {})), int(data.get("const", 0)))


def program_to_data(program: Program) -> dict:
    """A complete, order-preserving JSON structure for one program."""
    return {
        "name": program.name,
        "arrays": [
            {
                "name": a.name,
                "shape": list(a.shape),
                "element_size": a.element_size,
            }
            for a in program.arrays
        ],
        "nests": [
            {
                "label": nest.label,
                "loops": [
                    {
                        "var": lp.var,
                        "lower": affine_to_data(lp.lower),
                        "upper": affine_to_data(lp.upper),
                        "step": lp.step,
                        "extra_uppers": [affine_to_data(e) for e in lp.extra_uppers],
                        "extra_lowers": [affine_to_data(e) for e in lp.extra_lowers],
                    }
                    for lp in nest.loops
                ],
                "body": [
                    {
                        "flops": st.flops,
                        "label": st.label,
                        "refs": [
                            {
                                "array": r.array,
                                "subscripts": [
                                    affine_to_data(s) for s in r.subscripts
                                ],
                                "write": r.is_write,
                            }
                            for r in st.refs
                        ],
                    }
                    for st in nest.body
                ],
            }
            for nest in program.nests
        ],
    }


def program_from_data(data: dict) -> Program:
    arrays = tuple(
        ArrayDecl(a["name"], tuple(a["shape"]), a.get("element_size", 8))
        for a in data["arrays"]
    )
    nests = tuple(
        LoopNest(
            loops=tuple(
                Loop(
                    lp["var"],
                    affine_from_data(lp["lower"]),
                    affine_from_data(lp["upper"]),
                    lp.get("step", 1),
                    tuple(affine_from_data(e) for e in lp.get("extra_uppers", [])),
                    tuple(affine_from_data(e) for e in lp.get("extra_lowers", [])),
                )
                for lp in nest["loops"]
            ),
            body=tuple(
                Statement(
                    refs=tuple(
                        ArrayRef(
                            r["array"],
                            tuple(affine_from_data(s) for s in r["subscripts"]),
                            is_write=r.get("write", False),
                        )
                        for r in st["refs"]
                    ),
                    flops=st.get("flops", 0),
                    label=st.get("label", ""),
                )
                for st in nest["body"]
            ),
            label=nest.get("label", ""),
        )
        for nest in data["nests"]
    )
    return Program(data["name"], arrays, nests)


def hierarchy_from_data(data: dict) -> HierarchyConfig:
    return HierarchyConfig(
        levels=tuple(
            CacheConfig(
                size=c["size"],
                line_size=c["line_size"],
                associativity=c.get("associativity", 1),
                name=c.get("name", f"L{i + 1}"),
                hit_cycles=c.get("hit_cycles", 1.0),
            )
            for i, c in enumerate(data["levels"])
        ),
        memory_cycles=data.get("memory_cycles", 50.0),
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
        from repro.service.protocol import hierarchy_to_json  # lazy: replays never need it

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
            "program": program_to_data(self.program),
        }

    @classmethod
    def from_data(cls, data: dict) -> "CorpusCase":
        if data.get("schema") != SCHEMA_VERSION:
            raise ReproError(
                f"corpus case {data.get('name')!r}: unsupported schema "
                f"{data.get('schema')!r} (expected {SCHEMA_VERSION})"
            )
        div = data["divergence"]
        prov = data["provenance"]
        return cls(
            name=data["name"],
            program=program_from_data(data["program"]),
            hierarchy=hierarchy_from_data(data["hierarchy"]),
            hierarchy_name=prov["hierarchy"],
            kind=div["kind"],
            level=div.get("level", "-"),
            band=div.get("band", "mismatch"),
            magnitude=float(div.get("magnitude", 0.0)),
            seed=int(prov["seed"]),
            note=data.get("note", ""),
        )


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
    return CorpusCase.from_data(json.loads(pathlib.Path(path).read_text()))


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
