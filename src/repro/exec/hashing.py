"""Stable content hashing of simulation inputs.

A simulation's miss counters are fully determined by (a) the program IR
(arrays + loop nests), (b) the data layout (variable order, pads, sizes,
origin -- i.e. every base address), (c) the cache geometry of every
hierarchy level, (d) how the trace is produced (whole program, one
nest, or a kernel's custom trace hook), and (e) which *backend* produced
the counters (vectorized simulator, sequential oracle, or the symbolic
tier).  :func:`job_key` hashes exactly that set and nothing else, so the
on-disk result store can safely reuse results across processes,
sessions, and cosmetic refactors -- and results from different backends
can never alias under one key.

Deliberately **excluded** from the key:

* program / nest / statement labels and the program name -- cosmetic;
* ``hit_cycles`` / ``memory_cycles`` -- the cycle model is applied *after*
  simulation and never changes the stored counters;
* trace chunk sizes -- the streaming simulator guarantees chunking does
  not affect miss counts.

Cache level *names* are included: they are recorded inside the stored
:class:`~repro.cache.stats.SimulationResult`.

Bump :data:`SCHEMA_VERSION` whenever trace generation or simulation
semantics change in a way that invalidates previously stored results.
"""

from __future__ import annotations

import hashlib
import json

from repro.cache.config import CacheConfig, HierarchyConfig
from repro.ir.affine import AffineExpr
from repro.ir.arrays import ArrayDecl
from repro.ir.loops import Loop, LoopNest, Statement
from repro.ir.program import Program
from repro.ir.refs import ArrayRef
from repro.layout.layout import DataLayout

__all__ = [
    "SCHEMA_VERSION",
    "canonical",
    "digest",
    "job_key",
    "program_fingerprint",
]

# v2: a backend component joined the key -- an oracle result (or a
# symbolic one an older executor stored) must never be served for a
# simulator request, and vice versa.
SCHEMA_VERSION = 2


def _affine(e: AffineExpr) -> list:
    return ["affine", sorted(e.terms.items()), e.constant]


def _array(a: ArrayDecl) -> list:
    return ["array", a.name, list(a.shape), a.element_size]


def _ref(r: ArrayRef) -> list:
    return ["ref", r.array, [_affine(s) for s in r.subscripts], r.is_write]


def _statement(s: Statement) -> list:
    return ["stmt", [_ref(r) for r in s.refs], s.flops]


def _loop(lp: Loop) -> list:
    return [
        "loop",
        lp.var,
        _affine(lp.lower),
        _affine(lp.upper),
        lp.step,
        [_affine(e) for e in lp.extra_uppers],
        [_affine(e) for e in lp.extra_lowers],
    ]


def _nest(n: LoopNest) -> list:
    return ["nest", [_loop(lp) for lp in n.loops], [_statement(s) for s in n.body]]


def canonical(obj) -> object:
    """Lower a simulation input to a deterministic JSON-able structure."""
    if isinstance(obj, Program):
        return [
            "program",
            [_array(a) for a in obj.arrays],
            [_nest(n) for n in obj.nests],
        ]
    if isinstance(obj, DataLayout):
        return [
            "layout",
            list(obj.order),
            list(obj.pads),
            list(obj.sizes),
            obj.origin,
        ]
    if isinstance(obj, HierarchyConfig):
        return ["hierarchy", [canonical(c) for c in obj.levels]]
    if isinstance(obj, CacheConfig):
        return ["cache", obj.name, obj.size, obj.line_size, obj.associativity]
    if isinstance(obj, AffineExpr):
        return _affine(obj)
    if isinstance(obj, (ArrayDecl, ArrayRef, Statement, Loop, LoopNest)):
        return {
            ArrayDecl: _array,
            ArrayRef: _ref,
            Statement: _statement,
            Loop: _loop,
            LoopNest: _nest,
        }[type(obj)](obj)
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, (tuple, list)):
        return [canonical(x) for x in obj]
    raise TypeError(f"cannot canonicalize {type(obj).__name__} for hashing")


def digest(payload: object) -> str:
    """SHA-256 hex digest of a canonical structure."""
    blob = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def program_fingerprint(program: Program) -> str:
    """Content hash of a program's IR alone (arrays + nests)."""
    return digest(canonical(program))


def job_key(
    program: Program,
    layout: DataLayout,
    hierarchy: HierarchyConfig,
    trace: tuple = ("program",),
    backend: str = "sim",
) -> str:
    """The result-store key of one simulation job.

    ``trace`` names how the address trace is produced: ``("program",)``
    for the default whole-program generator, ``("nest", i)`` for a single
    cold-cache nest, or ``("kernel", name)`` for a registry kernel with a
    custom trace hook.  ``backend`` names what produced the counters
    (``"sim"`` or ``"oracle"``; older stores also hold ``"symbolic"``
    entries); it partitions the store so backends never serve each
    other's results.
    """
    return digest(
        [
            SCHEMA_VERSION,
            ["backend", backend],
            canonical(program),
            canonical(layout),
            canonical(hierarchy),
            canonical(tuple(trace)),
        ]
    )
