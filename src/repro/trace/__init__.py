"""Lowering IR programs to byte-address traces.

The generator is chunked: nests are produced as a stream of NumPy
chunks within a fixed reference budget (rows of triangular and tiled
nests enumerated with NumPy, big rows emitted in blocks), so
whole-program simulations never materialize gigabyte traces.  A chunk
is either int64 addresses or, cut for one hierarchy, the line numbers
its L1 must classify, without the conflict-free MRU hits it would drop.
The naive interpreter replays nests one access at a time and serves as
the generator's ground truth in tests.
"""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.trace.generator": (
        "generate_trace", "nest_trace_chunks", "program_trace_chunks",
        "program_line_chunks",
    ),
    "repro.trace.interpreter": ("interpret_nest", "interpret_program"),
})
