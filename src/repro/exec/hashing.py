"""Stable content hashing of simulation inputs.

A simulation's miss counters are fully determined by (a) the program IR
(arrays + loop nests), (b) the data layout (variable order, pads, sizes,
origin -- i.e. every base address), (c) the cache geometry of every
hierarchy level, (d) how the trace is produced (whole program, one
nest, or a kernel's custom trace hook), and (e) which *backend* produced
the counters (vectorized simulator or sequential oracle).  :func:`job_key`
hashes exactly that set and nothing else, so the on-disk result store
can safely reuse results across processes, sessions, and cosmetic
refactors -- and results from different backends can never alias under
one key.

Deliberately **excluded** from the key:

* program / nest / statement labels and the program name -- cosmetic;
* ``hit_cycles`` / ``memory_cycles`` -- the cycle model is applied *after*
  simulation and never changes the stored counters;
* trace chunk sizes -- the streaming simulator guarantees chunking does
  not affect miss counts.

Cache level *names* are included: they are recorded inside the stored
:class:`~repro.cache.stats.SimulationResult`.

A key is the SHA-256 of one JSON list.  A JSON list's text is its
items' texts joined by commas inside brackets, so :func:`job_key`
serializes each input on its own and joins the pieces.  The pieces of
a :class:`~repro.ir.program.Program`, a
:class:`~repro.layout.layout.DataLayout` and a
:class:`~repro.cache.config.HierarchyConfig` are memoized per live
object (:func:`fragment`): a sweep that reuses one program across many
layouts or hierarchies serializes it once, and the key bytes are the
same as hashing the whole list at once.  The text around them (schema
version, backend, trace mode) is cached per (backend, trace) pair.
The memo is :func:`repro.util.memo.memoize`'s side table keyed by
``id``, whose entries die with their object; nothing is stored on the
frozen IR objects themselves, so their pickled bytes -- and the payload
digests of :mod:`repro.exec.scheduler` -- do not change.

Bump :data:`SCHEMA_VERSION` whenever trace generation or simulation
semantics change in a way that invalidates previously stored results.
"""

from __future__ import annotations

import functools
import hashlib
import json

from repro.cache.config import CacheConfig, HierarchyConfig
from repro.ir.affine import AffineExpr
from repro.ir.arrays import ArrayDecl
from repro.ir.loops import Loop, LoopNest, Statement
from repro.ir.program import Program
from repro.ir.refs import ArrayRef
from repro.layout.layout import DataLayout
from repro.util.memo import memoize

__all__ = [
    "SCHEMA_VERSION",
    "canonical",
    "digest",
    "encode",
    "fragment",
    "digest_fragments",
    "job_key",
]

# v2: a backend component joined the key -- an oracle result (or a
# symbolic one an older executor stored) must never be served for a
# simulator request, and vice versa.
SCHEMA_VERSION = 2

#: The key's JSON text of an already-lowered structure.  One shared
#: encoder: ``json.dumps`` with custom separators builds a fresh encoder
#: per call, which costs more than encoding a short list.
encode = json.JSONEncoder(separators=(",", ":"), sort_keys=True).encode

#: ``id(obj) -> (weak reference to obj, JSON text of canonical(obj))``.
_FRAGMENTS: dict = {}


def _affine(e: AffineExpr) -> list:
    return ["affine", e.sorted_terms, e.constant]


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


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest(payload: object) -> str:
    """SHA-256 hex digest of a canonical structure."""
    return _sha256(encode(payload))


def fragment(obj) -> str:
    """The JSON text of ``canonical(obj)``, memoized per live object
    (:func:`repro.util.memo.memoize`)."""
    return memoize(_FRAGMENTS, obj, lambda o: encode(canonical(o)))


def digest_fragments(fragments) -> str:
    """:func:`digest` of the list whose items serialize to ``fragments``."""
    return _sha256("[" + ",".join(fragments) + "]")


_SCALARS = (str, int)


@functools.lru_cache(maxsize=64)
def _frame(backend: str, trace: tuple) -> tuple[str, str]:
    """The key text before the program fragment and after the hierarchy one."""
    head = "[" + encode(SCHEMA_VERSION) + "," + encode(["backend", backend]) + ","
    return head, "," + encode(canonical(trace)) + "]"


def job_key(
    program: Program,
    layout: DataLayout,
    hierarchy: HierarchyConfig,
    trace: tuple = ("program",),
    backend: str = "sim",
) -> str:
    """The result-store key of one simulation job.

    ``trace`` names how the address trace is produced: ``("program",)``
    for the default whole-program generator, or ``("kernel", name)`` for
    a registry kernel with a custom trace hook.  ``backend`` names what produced the counters
    (``"sim"`` or ``"oracle"``; older stores also hold ``"symbolic"``
    entries); it partitions the store so backends never serve each
    other's results.

    Equal to ``digest([SCHEMA_VERSION, ["backend", backend],
    canonical(program), canonical(layout), canonical(hierarchy),
    canonical(tuple(trace))])``, byte for byte.
    """
    trace = tuple(trace)
    # Only exact str/int items may share a cached frame: ``True == 1``
    # would otherwise serve ``1`` for a trace that encodes ``true``.
    cached = type(backend) is str and all(type(x) in _SCALARS for x in trace)
    head, tail = (_frame if cached else _frame.__wrapped__)(backend, trace)
    return _sha256(
        head + fragment(program) + "," + fragment(layout) + ","
        + fragment(hierarchy) + tail
    )
