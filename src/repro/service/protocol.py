"""The service wire format: JSON <-> IR codecs and canonical tuning keys.

A tuning request is a JSON object naming *what* to tune (a registry
kernel or an inline program IR), *for which machine* (a hierarchy preset
or explicit cache levels), and *how hard* (heuristic strategy, search
strategy, budget).  :func:`parse_request` validates it into a
:class:`TuningRequest` of real library objects, applying the documented
defaults; :func:`request_key` hashes the *parsed* request through the
same :func:`repro.exec.hashing.canonical` lowering the result store
uses.

Because the key is computed after parsing, every cosmetic difference
collapses: JSON key order (hashing sorts keys), omitted-vs-explicit
default fields (defaults are applied first), a preset hierarchy name vs
the equivalent explicit level list (both parse to the same
:class:`~repro.cache.config.HierarchyConfig`), and program/loop labels
(excluded by ``canonical``).  Two clients asking the same question in
different spellings therefore share one computation and one stored
answer -- the service's single-flight and warm-store behaviour both hang
off this key.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.config import CacheConfig, HierarchyConfig, alpha_21164, ultrasparc_i
from repro.driver import STRATEGIES
from repro.errors import ConfigError, IRError, ReproError
from repro.exec.hashing import SCHEMA_VERSION, digest_fragments, encode, fragment
from repro.ir.affine import AffineExpr
from repro.ir.arrays import ArrayDecl
from repro.ir.loops import Loop, LoopNest, Statement
from repro.ir.program import Program
from repro.ir.refs import ArrayRef
from repro.kernels.registry import get_kernel

__all__ = [
    "SERVICE_SCHEMA",
    "SEARCH_STRATEGIES",
    "HIERARCHY_PRESETS",
    "ProtocolError",
    "TuningRequest",
    "parse_request",
    "request_key",
    "program_to_json",
    "program_from_json",
    "hierarchy_to_json",
    "hierarchy_from_json",
]

# Version of the service request/response wire format.  Bump when the
# request semantics change incompatibly; it is part of the tuning key,
# so old stored responses are orphaned rather than mis-served.
SERVICE_SCHEMA = 1

SEARCH_STRATEGIES = ("none", "coordinate", "exhaustive", "predict")

HIERARCHY_PRESETS = {
    "ultrasparc_i": ultrasparc_i,
    "alpha_21164": alpha_21164,
}

_REQUEST_FIELDS = {
    "kernel", "n", "program", "hierarchy",
    "strategy", "search", "budget", "max_lines", "seed",
}

_DEFAULT_BUDGET = 16
_DEFAULT_MAX_LINES = 4


class ProtocolError(ReproError):
    """A malformed or semantically invalid service request/response."""


# -- affine expressions ------------------------------------------------------
#
# Wire forms accepted for one subscript / loop bound:
#   7                      -> the constant 7
#   "i"                    -> the variable i
#   {"terms": {"i": 2}, "const": 1}   -> 2*i + 1

def _affine_from_json(obj, where: str) -> AffineExpr:
    if isinstance(obj, bool):
        raise ProtocolError(f"{where}: expected an affine expression, got a bool")
    if isinstance(obj, int):
        return AffineExpr(constant=obj)
    if isinstance(obj, str):
        if not obj:
            raise ProtocolError(f"{where}: empty variable name")
        return AffineExpr({obj: 1})
    if isinstance(obj, dict):
        unknown = set(obj) - {"terms", "const"}
        if unknown:
            raise ProtocolError(
                f"{where}: unknown affine fields {sorted(unknown)}"
            )
        terms = obj.get("terms", {})
        if not isinstance(terms, dict):
            raise ProtocolError(f"{where}: 'terms' must be an object")
        try:
            return AffineExpr(
                {str(v): int(c) for v, c in terms.items()},
                constant=int(obj.get("const", 0)),
            )
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"{where}: {exc}") from None
    raise ProtocolError(
        f"{where}: expected int, variable name, or {{terms, const}} object"
    )


def _affine_to_json(e: AffineExpr):
    terms = dict(e.terms)
    if not terms:
        return e.constant
    if len(terms) == 1 and e.constant == 0:
        ((v, c),) = terms.items()
        if c == 1:
            return v
    out: dict = {"terms": terms}
    if e.constant:
        out["const"] = e.constant
    return out


# -- program IR --------------------------------------------------------------

def _require(obj: dict, field: str, where: str):
    if field not in obj:
        raise ProtocolError(f"{where}: missing required field {field!r}")
    return obj[field]


def _check_fields(obj, allowed: set, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ProtocolError(f"{where}: expected an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ProtocolError(f"{where}: unknown fields {sorted(unknown)}")
    return obj


def program_from_json(obj: dict) -> Program:
    """Decode an inline program IR; raises :class:`ProtocolError`."""
    _check_fields(obj, {"name", "arrays", "nests"}, "program")
    name = obj.get("name", "request")
    arrays = _require(obj, "arrays", "program")
    nests = _require(obj, "nests", "program")
    if not isinstance(arrays, list) or not isinstance(nests, list):
        raise ProtocolError("program: 'arrays' and 'nests' must be lists")
    decls = []
    for k, a in enumerate(arrays):
        where = f"program.arrays[{k}]"
        _check_fields(a, {"name", "shape", "element_size"}, where)
        try:
            decls.append(ArrayDecl(
                name=str(_require(a, "name", where)),
                shape=tuple(int(d) for d in _require(a, "shape", where)),
                element_size=int(a.get("element_size", 8)),
            ))
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"{where}: {exc}") from None
    built = []
    for k, n in enumerate(nests):
        where = f"program.nests[{k}]"
        _check_fields(n, {"loops", "body", "label"}, where)
        loops = []
        for j, lp in enumerate(_require(n, "loops", where)):
            lw = f"{where}.loops[{j}]"
            _check_fields(
                lp,
                {"var", "lower", "upper", "step", "extra_uppers", "extra_lowers"},
                lw,
            )
            try:
                loops.append(Loop(
                    var=str(_require(lp, "var", lw)),
                    lower=_affine_from_json(_require(lp, "lower", lw), lw),
                    upper=_affine_from_json(_require(lp, "upper", lw), lw),
                    step=int(lp.get("step", 1)),
                    extra_uppers=tuple(
                        _affine_from_json(e, lw) for e in lp.get("extra_uppers", [])
                    ),
                    extra_lowers=tuple(
                        _affine_from_json(e, lw) for e in lp.get("extra_lowers", [])
                    ),
                ))
            except (TypeError, ValueError) as exc:
                raise ProtocolError(f"{lw}: {exc}") from None
        body = []
        for j, st in enumerate(_require(n, "body", where)):
            sw = f"{where}.body[{j}]"
            _check_fields(st, {"refs", "flops", "label"}, sw)
            refs = []
            for r in _require(st, "refs", sw):
                _check_fields(r, {"array", "subscripts", "write"}, sw)
                refs.append(ArrayRef(
                    array=str(_require(r, "array", sw)),
                    subscripts=tuple(
                        _affine_from_json(s, sw)
                        for s in _require(r, "subscripts", sw)
                    ),
                    is_write=bool(r.get("write", False)),
                ))
            body.append(Statement(
                refs=tuple(refs),
                flops=int(st.get("flops", 0)),
                label=str(st.get("label", "")),
            ))
        built.append(LoopNest(
            loops=tuple(loops), body=tuple(body), label=str(n.get("label", ""))
        ))
    try:
        return Program(name=str(name), arrays=tuple(decls), nests=tuple(built))
    except (IRError, ValueError) as exc:
        raise ProtocolError(f"program: {exc}") from None


def program_to_json(program: Program) -> dict:
    """Encode a program as the wire IR (inverse of :func:`program_from_json`)."""
    return {
        "name": program.name,
        "arrays": [
            {"name": a.name, "shape": list(a.shape), "element_size": a.element_size}
            for a in program.arrays
        ],
        "nests": [
            {
                "loops": [
                    {
                        "var": lp.var,
                        "lower": _affine_to_json(lp.lower),
                        "upper": _affine_to_json(lp.upper),
                        **({"step": lp.step} if lp.step != 1 else {}),
                        **({"extra_uppers":
                            [_affine_to_json(e) for e in lp.extra_uppers]}
                           if lp.extra_uppers else {}),
                        **({"extra_lowers":
                            [_affine_to_json(e) for e in lp.extra_lowers]}
                           if lp.extra_lowers else {}),
                    }
                    for lp in n.loops
                ],
                "body": [
                    {
                        "refs": [
                            {
                                "array": r.array,
                                "subscripts":
                                    [_affine_to_json(s) for s in r.subscripts],
                                **({"write": True} if r.is_write else {}),
                            }
                            for r in st.refs
                        ],
                        **({"flops": st.flops} if st.flops else {}),
                        **({"label": st.label} if st.label else {}),
                    }
                    for st in n.body
                ],
                **({"label": n.label} if n.label else {}),
            }
            for n in program.nests
        ],
    }


# -- hierarchies -------------------------------------------------------------

def hierarchy_from_json(obj) -> HierarchyConfig:
    """Decode a hierarchy: a preset name or an explicit level list."""
    if isinstance(obj, str):
        preset = HIERARCHY_PRESETS.get(obj)
        if preset is None:
            raise ProtocolError(
                f"unknown hierarchy preset {obj!r}; "
                f"available: {', '.join(sorted(HIERARCHY_PRESETS))}"
            )
        return preset()
    _check_fields(obj, {"levels", "memory_cycles"}, "hierarchy")
    levels = _require(obj, "levels", "hierarchy")
    if not isinstance(levels, list) or not levels:
        raise ProtocolError("hierarchy: 'levels' must be a non-empty list")
    configs = []
    for k, lv in enumerate(levels):
        where = f"hierarchy.levels[{k}]"
        _check_fields(
            lv, {"size", "line_size", "associativity", "name", "hit_cycles"}, where
        )
        try:
            configs.append(CacheConfig(
                size=int(_require(lv, "size", where)),
                line_size=int(_require(lv, "line_size", where)),
                associativity=int(lv.get("associativity", 1)),
                name=str(lv.get("name", f"L{k + 1}")),
                hit_cycles=float(lv.get("hit_cycles", 1.0)),
            ))
        except (ConfigError, TypeError, ValueError) as exc:
            raise ProtocolError(f"{where}: {exc}") from None
    try:
        return HierarchyConfig(
            levels=tuple(configs),
            memory_cycles=float(obj.get("memory_cycles", 50.0)),
        )
    except (ConfigError, TypeError, ValueError) as exc:
        raise ProtocolError(f"hierarchy: {exc}") from None


def hierarchy_to_json(hierarchy: HierarchyConfig) -> dict:
    """Encode a hierarchy as an explicit level list."""
    return {
        "levels": [
            {
                "size": lv.size,
                "line_size": lv.line_size,
                "associativity": lv.associativity,
                "name": lv.name,
                "hit_cycles": lv.hit_cycles,
            }
            for lv in hierarchy.levels
        ],
        "memory_cycles": hierarchy.memory_cycles,
    }


# -- requests ----------------------------------------------------------------

@dataclass(frozen=True)
class TuningRequest:
    """One parsed, validated tuning request.

    ``kernel`` carries the registry name only when that kernel has a
    custom trace hook (the irregular-mesh gathers); for every other
    kernel the generic program trace is identical, so the field is None
    and requests for "kernel jacobi at n=64" and the equivalent inline
    IR share a tuning key.
    """

    program: Program
    hierarchy: HierarchyConfig
    strategy: str
    search: str
    budget: int
    max_lines: int
    seed: int
    kernel: str | None = None


def parse_request(payload) -> TuningRequest:
    """Validate a request payload and apply defaults.

    Defaults: ``hierarchy`` = ``"ultrasparc_i"``; ``strategy`` =
    ``"L1&L2"`` when the hierarchy has a second level, else ``"L1"``;
    ``search`` = ``"coordinate"``; ``budget`` = 16; ``max_lines`` = 4;
    ``seed`` = 0.  Raises :class:`ProtocolError` with a pointed message
    on anything malformed (the server turns that into a 400).
    """
    _check_fields(payload, _REQUEST_FIELDS, "request")
    has_kernel = "kernel" in payload
    has_program = "program" in payload
    if has_kernel == has_program:
        raise ProtocolError(
            "request: provide exactly one of 'kernel' or 'program'"
        )
    kernel_name = None
    if has_kernel:
        try:
            kern = get_kernel(str(payload["kernel"]))
        except ReproError as exc:
            raise ProtocolError(f"request: {exc}") from None
        n = payload.get("n")
        try:
            program = kern.program(None if n is None else int(n))
        except (ReproError, TypeError, ValueError) as exc:
            raise ProtocolError(
                f"request: cannot build kernel {kern.name!r}"
                f" at n={n!r}: {exc}"
            ) from None
        if kern.custom_trace is not None:
            kernel_name = kern.name
    else:
        if "n" in payload:
            raise ProtocolError("request: 'n' only applies to 'kernel' requests")
        program = program_from_json(payload["program"])
    hierarchy = hierarchy_from_json(payload.get("hierarchy", "ultrasparc_i"))

    default_strategy = "L1&L2" if len(hierarchy) > 1 else "L1"
    strategy = str(payload.get("strategy", default_strategy))
    if strategy not in STRATEGIES:
        raise ProtocolError(
            f"request: unknown strategy {strategy!r}; "
            f"choose from {', '.join(STRATEGIES)}"
        )
    if strategy == "L1&L2" and len(hierarchy) < 2:
        raise ProtocolError(
            "request: strategy 'L1&L2' needs a hierarchy with an L2 cache"
        )
    search = str(payload.get("search", "coordinate"))
    if search not in SEARCH_STRATEGIES:
        raise ProtocolError(
            f"request: unknown search strategy {search!r}; "
            f"choose from {', '.join(SEARCH_STRATEGIES)}"
        )
    try:
        budget = int(payload.get("budget", _DEFAULT_BUDGET))
        max_lines = int(payload.get("max_lines", _DEFAULT_MAX_LINES))
        seed = int(payload.get("seed", 0))
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"request: {exc}") from None
    if budget < 1:
        raise ProtocolError(f"request: budget must be >= 1, got {budget}")
    if max_lines < 1:
        raise ProtocolError(f"request: max_lines must be >= 1, got {max_lines}")
    return TuningRequest(
        program=program,
        hierarchy=hierarchy,
        strategy=strategy,
        search=search,
        budget=budget,
        max_lines=max_lines,
        seed=seed,
        kernel=kernel_name,
    )


def request_key(req: TuningRequest) -> str:
    """The content-addressed identity of one tuning request.

    Hashed over the *parsed* request, through the executor's canonical
    lowering -- so labels, field order, defaulted fields, and
    preset-vs-explicit hierarchy spellings cannot split the key.  The
    search knobs only participate when a search actually runs: with
    ``search == "none"`` the budget/max_lines/seed cannot affect the
    answer, so they are excluded and any spelling of "no search" shares
    one key.
    """
    params: list = ["params", req.strategy, req.search]
    if req.search != "none":
        params += [req.budget, req.max_lines, req.seed]
    return digest_fragments((
        encode("tune"),
        encode(SERVICE_SCHEMA),
        encode(SCHEMA_VERSION),
        fragment(req.program),
        fragment(req.hierarchy),
        encode(["trace", req.kernel]),
        encode(params),
    ))
