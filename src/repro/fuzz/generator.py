"""Seeded random affine-program generation.

Turns the paper's fixed menu of ~14 kernels into a workload *population*:
every call to :func:`random_program` derives a complete, valid IR program
-- column-major arrays, perfect (optionally triangular) loop nests,
affine subscripts with constant strides and offsets, optionally several
fusable nests over a shared array pool -- from nothing but an integer
seed.  Generation is byte-deterministic: the same seed always yields the
same program, so any divergence a fuzz campaign finds is reproducible
from its seed alone.

Validity by construction: subscripts are generated first and array
extents are then sized to the subscripts' interval hulls (the same
interval arithmetic :mod:`repro.ir.validate` checks with), so every
emitted program passes ``check_program`` with zero bounds errors.  Loop
trip counts are budgeted so the program's dynamic reference count stays
under ``max_refs`` -- small enough that the pure-Python oracle simulators
in the differential harness stay affordable at campaign scale.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.ir.affine import AffineExpr, const, var
from repro.ir.arrays import ArrayDecl
from repro.ir.loops import Loop, LoopNest, Statement
from repro.ir.program import Program
from repro.ir.ranges import affine_interval, loop_var_ranges
from repro.ir.refs import ArrayRef

__all__ = ["FuzzConfig", "random_program", "program_stream"]


@dataclass(frozen=True)
class FuzzConfig:
    """Bounds of the random-program grammar.

    The defaults produce small stencil/sweep-shaped programs (1-3 nests,
    depth 1-3, rank 1-2 arrays, trips up to 24) whose traces run in
    milliseconds on the sequential oracle -- sized for campaigns of
    hundreds to thousands of programs, not for realism.  ``max_refs``
    caps each program's dynamic reference count; trip counts are scaled
    down until the program fits.
    """

    max_nests: int = 3
    max_depth: int = 3
    max_arrays: int = 3
    max_rank: int = 2
    max_trip: int = 24
    max_stride: int = 3
    max_offset: int = 2
    max_statements: int = 2
    max_reads: int = 3
    max_refs: int = 4000
    element_sizes: tuple[int, ...] = (8, 4)
    p_multi_nest: float = 0.5
    p_fuse_bounds: float = 0.5
    p_triangular: float = 0.2
    p_constant_sub: float = 0.15
    p_negative_stride: float = 0.15

    def __post_init__(self) -> None:
        for name in (
            "max_nests", "max_depth", "max_arrays", "max_rank", "max_trip",
            "max_stride", "max_statements", "max_reads", "max_refs",
        ):
            if getattr(self, name) < 1:
                raise ReproError(f"FuzzConfig.{name} must be >= 1")
        if self.max_offset < 0:
            raise ReproError("FuzzConfig.max_offset must be >= 0")
        if not self.element_sizes:
            raise ReproError("FuzzConfig.element_sizes must be non-empty")


@dataclass
class _ArraySpec:
    """An array being grown: rank fixed at creation, extents accumulate."""

    name: str
    rank: int
    element_size: int
    extents: list[int] = field(default_factory=list)
    read: bool = False

    def __post_init__(self) -> None:
        if not self.extents:
            self.extents = [1] * self.rank


def _make_loops(rng: random.Random, cfg: FuzzConfig, nest_idx: int,
                trip_budget: int) -> list[Loop]:
    """Random loops for one nest, trip product bounded by ``trip_budget``."""
    depth = rng.randint(1, cfg.max_depth)
    loops: list[Loop] = []
    remaining = max(2, trip_budget)
    for level in range(depth):
        name = f"{'ijklmn'[level]}{nest_idx}"
        levels_left = depth - level
        # Even split of the remaining trip budget across the loops still
        # to be generated, so deep nests stay runnable.
        cap = max(1, int(round(remaining ** (1.0 / levels_left))))
        trip = rng.randint(1, min(cfg.max_trip, max(1, cap)))
        lower = rng.randint(1, 2)
        upper = lower + trip - 1
        lo_expr: AffineExpr = const(lower)
        up_expr: AffineExpr = const(upper)
        if loops and rng.random() < cfg.p_triangular:
            # Triangular: one bound rides an outer variable.  Keeping the
            # constant counterpart as the other bound keeps ranges sane.
            outer = rng.choice(loops)
            if rng.random() < 0.5:
                lo_expr = var(outer.var)
            else:
                up_expr = var(outer.var) + rng.randint(0, cfg.max_offset)
        loops.append(Loop(name, lo_expr, up_expr, step=1))
        remaining = max(1, remaining // max(1, trip))
    return loops


def _make_subscript(
    rng: random.Random,
    cfg: FuzzConfig,
    loops: list[Loop],
    ranges: dict[str, tuple[int, int]],
) -> AffineExpr:
    """One in-bounds-by-construction affine subscript."""
    if rng.random() < cfg.p_constant_sub:
        return const(rng.randint(1, 1 + cfg.max_offset))
    lp = rng.choice(loops)
    stride = rng.randint(1, cfg.max_stride)
    vmin, vmax = ranges[lp.var]
    if rng.random() < cfg.p_negative_stride:
        # c*v + o with c < 0: anchor the offset so the minimum lands >= 1.
        return var(lp.var) * (-stride) + (stride * vmax + 1 + rng.randint(0, cfg.max_offset))
    return var(lp.var) * stride + rng.randint(1 - stride * max(1, vmin), cfg.max_offset)


def _grow_ref(
    rng: random.Random,
    cfg: FuzzConfig,
    spec: _ArraySpec,
    loops: list[Loop],
    ranges: dict[str, tuple[int, int]],
    is_write: bool,
) -> ArrayRef:
    """A reference to ``spec``; widens the spec's extents to fit."""
    subs = tuple(_make_subscript(rng, cfg, loops, ranges) for _ in range(spec.rank))
    for dim, sub in enumerate(subs):
        lo, hi = affine_interval(sub, ranges)
        if lo < 1:  # negative-stride anchoring guarantees lo >= 1; belt and braces
            raise ReproError(f"generated subscript {sub!r} spans below 1")
        spec.extents[dim] = max(spec.extents[dim], hi)
    if not is_write:
        spec.read = True
    return ArrayRef(spec.name, subs, is_write=is_write)


def random_program(seed: int, config: FuzzConfig | None = None) -> Program:
    """One random affine program, byte-deterministic in ``seed``.

    The program always makes at least one reference, reads every array
    it writes somewhere (no validator warnings beyond never-executed
    nests), and stays within ``config.max_refs`` dynamic references.
    """
    cfg = config or FuzzConfig()
    rng = random.Random(seed)
    # A draw whose nests all have empty triangular bounds makes no
    # reference; keep drawing from the same stream, so every seed whose
    # first draw is non-empty generates it unchanged.
    while True:
        program = _draw_program(rng, cfg, f"fuzz-{seed}")
        if program.total_refs() > 0:
            return program


def _draw_program(rng: random.Random, cfg: FuzzConfig, name: str) -> Program:
    """One draw of :func:`random_program` from ``rng``; may be empty."""
    specs: list[_ArraySpec] = []

    def new_spec() -> _ArraySpec:
        spec = _ArraySpec(
            name=f"A{len(specs)}",
            rank=rng.randint(1, cfg.max_rank),
            element_size=rng.choice(cfg.element_sizes),
        )
        specs.append(spec)
        return spec

    def pick_spec() -> _ArraySpec:
        if len(specs) < cfg.max_arrays and (not specs or rng.random() < 0.5):
            return new_spec()
        return rng.choice(specs)

    nnests = 1
    while nnests < cfg.max_nests and rng.random() < cfg.p_multi_nest:
        nnests += 1
    per_nest_refs = max(4, cfg.max_refs // nnests)

    nests: list[LoopNest] = []
    prev_loops: list[Loop] | None = None
    for n in range(nnests):
        refs_per_iter_est = 2 * cfg.max_statements
        if prev_loops is not None and rng.random() < cfg.p_fuse_bounds:
            # A fusable sibling: same bounds and depth as the previous
            # nest, fresh variable names (fusion's precondition).
            loops = [
                Loop(f"{'ijklmn'[lv]}{n}",
                     lp.lower.rename({p.var: f"{'ijklmn'[i]}{n}"
                                      for i, p in enumerate(prev_loops)}),
                     lp.upper.rename({p.var: f"{'ijklmn'[i]}{n}"
                                      for i, p in enumerate(prev_loops)}),
                     lp.step)
                for lv, lp in enumerate(prev_loops)
            ]
        else:
            loops = _make_loops(rng, cfg, n, per_nest_refs // refs_per_iter_est)
        prev_loops = loops
        ranges = loop_var_ranges(loops)

        body: list[Statement] = []
        for _ in range(rng.randint(1, cfg.max_statements)):
            nreads = rng.randint(1, cfg.max_reads)
            reads = tuple(
                _grow_ref(rng, cfg, pick_spec(), loops, ranges, is_write=False)
                for _ in range(nreads)
            )
            if rng.random() < 0.85:
                target = _grow_ref(rng, cfg, pick_spec(), loops, ranges,
                                   is_write=True)
                body.append(Statement(reads + (target,), flops=rng.randint(0, 2)))
            else:
                body.append(Statement(reads, flops=rng.randint(0, 2)))
        nests.append(LoopNest(tuple(loops), tuple(body), label=f"fuzz{n}"))

    # Arrays that are written but never read get one covering read in the
    # last nest, so the "written but never read" validator warning cannot
    # fire and every array participates in cross-nest reuse analysis.
    fixups: list[ArrayRef] = []
    last = nests[-1]
    last_ranges = loop_var_ranges(last)
    for spec in specs:
        if not spec.read:
            fixups.append(
                _grow_ref(rng, cfg, spec, list(last.loops), last_ranges,
                          is_write=False)
            )
    if fixups:
        nests[-1] = last.with_body(last.body + (Statement(tuple(fixups)),))

    arrays = tuple(
        ArrayDecl(s.name, tuple(s.extents), s.element_size) for s in specs
    )
    program = Program(name, arrays, tuple(nests))

    # Trip budgeting used rectangular estimates; triangular nests can
    # only be smaller, but fused bodies may push past the cap.  Halve the
    # widest constant-bounded loop of the widest nest until the real
    # count fits.  A triangular-heavy nest may have no constant/constant
    # loop left; then pull a constant *upper* toward its range minimum,
    # and failing that trim a triangular upper's offset — the fallbacks
    # only run when the primary rule has nothing to halve, so seeds the
    # halving already fits keep generating byte-identically.
    guard = 0
    while program.total_refs() > cfg.max_refs and guard < 64:
        guard += 1
        widest = max(
            range(len(program.nests)),
            key=lambda i: program.nests[i].iterations(),
        )
        nest = program.nests[widest]
        shrinkable = [
            (lp.upper.constant - lp.lower.constant, li)
            for li, lp in enumerate(nest.loops)
            if lp.lower.is_constant and lp.upper.is_constant
            and lp.upper.constant > lp.lower.constant
        ]
        if shrinkable:
            _, li = max(shrinkable)
            lp = nest.loops[li]
            lo, hi = lp.lower.constant, lp.upper.constant
            shrunk = Loop(lp.var, lp.lower,
                          const(lo + max(0, (hi - lo) // 2 - 1)), lp.step)
        else:
            ranges = loop_var_ranges(nest)
            by_range = [
                (ranges[lp.var][1] - ranges[lp.var][0], li)
                for li, lp in enumerate(nest.loops)
                if lp.upper.is_constant
                and ranges[lp.var][1] > ranges[lp.var][0]
            ]
            offsets = [
                (lp.upper.constant, li)
                for li, lp in enumerate(nest.loops)
                if not lp.upper.is_constant and lp.upper.constant > 0
            ]
            if by_range:
                _, li = max(by_range)
                lp = nest.loops[li]
                lo, hi = ranges[lp.var][0], lp.upper.constant
                shrunk = Loop(lp.var, lp.lower,
                              const(lo + max(0, (hi - lo) // 2 - 1)), lp.step)
            elif offsets:
                off, li = max(offsets)
                lp = nest.loops[li]
                shrunk = Loop(lp.var, lp.lower, lp.upper - (off - off // 2),
                              lp.step)
            else:
                break
        loops = list(nest.loops)
        loops[li] = shrunk
        program = program.replace_nest(widest, nest.with_loops(tuple(loops)))
    return program


def program_stream(seed: int, count: int, config: FuzzConfig | None = None):
    """Yield ``(case_seed, program)`` for a campaign of ``count`` programs.

    Case ``i`` uses seed ``seed + i``, so any single case reruns as
    ``ext_fuzz --seed <case_seed> --count 1``.
    """
    if count < 1:
        raise ReproError(f"count must be >= 1, got {count}")
    for i in range(count):
        yield seed + i, random_program(seed + i, config)


def fuzzed_workloads(seed: int, count: int, config: FuzzConfig | None = None):
    """``(case_seed, program, layout)`` triples for downstream consumers.

    The fuzzed population as ready-to-run workloads: each program paired
    with its sequential layout, reproducible from ``seed`` alone.  This
    is the sampling surface the symbolic cross-validation suite, the
    ``BENCH_symbolic.json`` benchmarks, and search smoke tests draw from
    -- one definition, so "program ``i`` of seed ``s``" means the same
    workload everywhere.
    """
    from repro.layout.layout import DataLayout  # lazy: layout imports ir only

    return [
        (case_seed, program, DataLayout.sequential(program))
        for case_seed, program in program_stream(seed, count, config)
    ]
