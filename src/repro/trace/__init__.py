"""Lowering IR programs to byte-address traces.

The generator is chunked: nests are produced as a stream of NumPy
address arrays within a fixed reference budget (rows of triangular and
tiled nests enumerated with NumPy, big rows emitted in blocks), so
whole-program simulations never materialize gigabyte traces.  The naive interpreter replays nests one
access at a time and serves as the generator's ground truth in tests.
"""

from repro.trace.generator import (
    generate_trace,
    nest_trace_chunks,
    program_trace_chunks,
)
from repro.trace.interpreter import interpret_nest, interpret_program

__all__ = [
    "generate_trace",
    "nest_trace_chunks",
    "program_trace_chunks",
    "interpret_nest",
    "interpret_program",
]
