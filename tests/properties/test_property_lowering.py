"""Property tests: the lowered form against the IR's offset definition.

Every address reader reads :func:`repro.ir.lowering.lower`'s tables, so
they must say exactly what :meth:`ArrayRef.offset_expr` and the
sequential interpreter say, on triangular, negative-step and multi-nest
programs under random padded layouts.
"""

from itertools import combinations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DataLayout
from repro.analysis.footprint import ref_span_bytes
from repro.ir.lowering import lower
from repro.ir.ranges import affine_interval, loop_var_ranges
from repro.layout.diagram import NestGeometry
from repro.trace.interpreter import interpret_nest

from tests.properties.test_property_trace import _walk_rows, random_program


def _offsets(prog, low):
    return [r.offset_expr(prog.decl(r.array)) for r in low.unique]


@given(prog=random_program())
@settings(max_examples=60, deadline=None)
def test_tables_equal_offset_expr(prog):
    lowered = lower(prog)
    assert lowered.names == tuple(a.name for a in prog.arrays)
    for nest, low in zip(prog.nests, lowered.nests):
        assert low.nest is nest and lowered.nest(nest) is low
        for r, ref in enumerate(nest.refs):
            u = low.index[r]
            assert (low.unique[u].array, low.unique[u].subscripts) == (
                ref.array, ref.subscripts)
        assert sum(low.multiplicity) == len(nest.refs)
        for u, off in enumerate(_offsets(prog, low)):
            assert lowered.names[low.array[u]] == low.unique[u].array
            assert low.const[u] == off.constant
            assert low.coeff[:, u].tolist() == [off.coeff(v) for v in nest.loop_vars]


@given(
    prog=random_program(),
    pads=st.lists(st.integers(0, 256), min_size=3, max_size=3),
)
@settings(max_examples=40, deadline=None)
def test_base_plus_const_plus_columns_is_the_trace(prog, pads):
    layout = DataLayout.sequential(prog)
    layout = layout.with_pads(dict(zip(layout.order, pads)))
    lowered = lower(prog)
    bases = lowered.bases(layout)
    for nest, low in zip(prog.nests, lowered.nests):
        envs = _walk_rows(nest, nest.depth, {})
        values = np.array(
            [[env[v] for v in nest.loop_vars] for env in envs], dtype=np.int64
        ).reshape(-1, nest.depth)
        addrs = bases[low.array] + low.const + values @ low.coeff
        np.testing.assert_array_equal(
            addrs[:, low.index].ravel(),
            interpret_nest(prog, layout, nest, check_bounds=False),
        )


@given(prog=random_program())
@settings(max_examples=60, deadline=None)
def test_constant_pairs_are_the_constant_deltas(prog):
    for nest, low in zip(prog.nests, lower(prog).nests):
        offs = _offsets(prog, low)
        want = tuple(
            (i, j) for i, j in combinations(range(len(offs)), 2)
            if low.unique[i].array != low.unique[j].array
            and (offs[i] - offs[j]).is_constant
        )
        assert NestGeometry.of(prog, nest).constant_pairs == want


@given(prog=random_program())
@settings(max_examples=60, deadline=None)
def test_span_rule_is_the_affine_interval(prog):
    for nest, low in zip(prog.nests, lower(prog).nests):
        ranges = loop_var_ranges(nest)
        intervals = [affine_interval(off, ranges) for off in _offsets(prog, low)]
        assert list(zip(low.lo.tolist(), low.hi.tolist())) == intervals
        for name in (a.name for a in prog.arrays):
            mine = [iv for r, iv in zip(low.unique, intervals) if r.array == name]
            want = 0
            if mine:
                lo, hi = min(a for a, _ in mine), max(b for _, b in mine)
                want = hi - lo + prog.decl(name).element_size
            assert ref_span_bytes(prog, nest, name) == want
