"""Golden job keys: a store written by an earlier build must still hit.

Every literal below was computed by the key code before key fragments
were memoized.  A change that moves any of them silently orphans every
existing result store (and the tuning service's response store), so it
must come with a :data:`~repro.exec.hashing.SCHEMA_VERSION` bump -- and
then these literals are re-pinned deliberately.  Together the jobs cover
the three trace modes (``("program",)``, ``("nest", i)`` and
``("kernel", "irr500k")``), both backends, and one service request key.
"""

from __future__ import annotations

import pytest

from repro import DataLayout, ProgramBuilder, ultrasparc_i
from repro.cache.config import CacheConfig, HierarchyConfig
from repro.exec.hashing import SCHEMA_VERSION, canonical, digest
from repro.exec.jobs import SimJob
from repro.ir.affine import var
from repro.ir.loops import Loop, LoopNest
from repro.kernels.registry import get_kernel
from repro.service.protocol import parse_request, request_key


def triangle_program():
    """Two nests: a triangular 2-D sweep with mixed-sign subscripts and a
    tiled 1-D loop whose ``min`` bound exercises ``extra_uppers``."""
    b = ProgramBuilder("golden")
    A = b.array("A", (40, 40))
    B = b.array("B", (40,), element_size=4)
    i, j = b.vars("i", "j")
    b.nest(
        [b.loop(i, 2, 39), b.loop(j, i, 39)],
        [b.assign(A[i, j], reads=[A[i - 1, 40 - j], B[2 * j - i + 1]], flops=2)],
    )
    program = b.build()
    ii, k = var("ii"), var("k")
    tiled = LoopNest(
        loops=(Loop("ii", 1, 40, step=8), Loop("k", ii, ii + 7, extra_uppers=(40,))),
        body=(b.assign(B[k], reads=[A[k, 3]], flops=1),),
    )
    return program.with_nests(program.nests + (tiled,))


def two_way():
    return HierarchyConfig(
        levels=(
            CacheConfig(size=8 * 1024, line_size=32, associativity=2, name="L1"),
            CacheConfig(size=256 * 1024, line_size=64, associativity=4, name="L2"),
        )
    )


def golden_jobs() -> dict[str, tuple[SimJob, str]]:
    tri = triangle_program()
    jacobi = get_kernel("jacobi").program(64)
    irr_kernel = get_kernel("irr500k")
    irr = irr_kernel.program(2000)
    padded = DataLayout.sequential(tri).with_pad("B", 96)
    return {
        "tri-program-sim": (SimJob(tri, padded, two_way()), "sim"),
        "tri-program-oracle": (SimJob(tri, padded, two_way()), "oracle"),
        "jacobi-program-sim": (
            SimJob(jacobi, DataLayout.sequential(jacobi), ultrasparc_i()),
            "sim",
        ),
        "irr-kernel-sim": (
            SimJob.for_kernel(irr_kernel, irr, DataLayout.sequential(irr),
                              ultrasparc_i()),
            "sim",
        ),
        "irr-kernel-oracle": (
            SimJob.for_kernel(irr_kernel, irr, DataLayout.sequential(irr),
                              two_way()),
            "oracle",
        ),
    }


GOLDEN_KEYS = {
    "tri-program-sim": (
        "3a71dc031dc325d9982d092dce62d5a3"
        "c4a444c63604f2b4b6a42be2135480a4"
    ),
    "tri-program-oracle": (
        "4ba23e4bde1614335e8942f86cfd90a3"
        "bd1141dc634904f90d4d9fa8c93c36ea"
    ),
    "jacobi-program-sim": (
        "d1acc6dd97d8eab2e73ba4aa070a46fb"
        "2f8acbed92d5069467746f8cae9392d2"
    ),
    "irr-kernel-sim": (
        "027a2e4143f68bd8579df1d87f279ee9"
        "6fb847aa420094592b0f26977dced161"
    ),
    "irr-kernel-oracle": (
        "4954fad7a9e3fef87f0f5c306b37bcdf"
        "74f68303bf13ffafae2b71dbae2bc4c8"
    ),
}

GOLDEN_FINGERPRINT = (
    "87a75deb8a6c3be67f2c2a7a60b92319"
    "53280d9f10df72c83dc9be452970dec6"
)

GOLDEN_REQUEST_KEY = (
    "20dee5853c5baf223669eda991d20f08"
    "bbe0faadf47956afdb6e86a5b95c36af"
)


def test_schema_version_unchanged():
    # The literals below are only valid for this schema.
    assert SCHEMA_VERSION == 2


def test_trace_modes_covered():
    modes = {job.trace_spec()[0] for job, _ in golden_jobs().values()}
    assert modes == {"program", "kernel"}
    assert golden_jobs()["irr-kernel-sim"][0].trace_spec() == ("kernel", "irr500k")


@pytest.mark.parametrize("name", sorted(GOLDEN_KEYS))
def test_job_key_golden(name):
    job, backend = golden_jobs()[name]
    assert job.key(backend) == GOLDEN_KEYS[name]
    # A second keying (now from the memo) must agree byte for byte.
    assert job.key(backend) == GOLDEN_KEYS[name]


def test_program_fingerprint_golden():
    assert digest(canonical(triangle_program())) == GOLDEN_FINGERPRINT


def test_request_key_golden():
    req = parse_request({"kernel": "jacobi", "n": 32, "hierarchy": "ultrasparc_i",
                         "search": "coordinate", "budget": 8})
    assert request_key(req) == GOLDEN_REQUEST_KEY
