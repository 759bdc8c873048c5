"""The service wire format: codecs, parsing, defaults, and tuning keys."""

from __future__ import annotations

import pytest

from repro import ProgramBuilder, ultrasparc_i
from repro.exec.hashing import canonical, digest
from repro.service.protocol import (
    ProtocolError,
    hierarchy_from_json,
    hierarchy_to_json,
    parse_request,
    program_from_json,
    program_to_json,
    request_key,
)


def tiny_program(n: int = 24):
    b = ProgramBuilder(f"svc{n}")
    A = b.array("A", (n, n))
    B = b.array("B", (n, n))
    i, j = b.vars("i", "j")
    b.nest(
        [b.loop(j, 1, n - 1), b.loop(i, 1, n - 1)],
        [b.assign(B[i, j], reads=[A[i, j], A[i, j + 1]], flops=1)],
    )
    return b.build()


class TestProgramCodec:
    def test_round_trip_preserves_fingerprint(self):
        p = tiny_program()
        again = program_from_json(program_to_json(p))
        assert digest(canonical(again)) == digest(canonical(p))
        assert again.name == p.name

    def test_kernel_programs_round_trip(self):
        """The codec is lossless, labels included: every registry kernel
        decodes to an equal program."""
        from repro.kernels.registry import KERNELS, get_kernel

        for p in (get_kernel(name).program(16) for name in KERNELS):
            assert program_from_json(program_to_json(p)) == p, p.name

    def test_affine_wire_forms_are_equivalent(self):
        base = program_to_json(tiny_program())
        # Rewrite "i" as {"terms": {"i": 1}} and ints as {"const": n}.
        verbose = program_to_json(tiny_program())
        for nest in verbose["nests"]:
            for lp in nest["loops"]:
                lp["lower"] = {"const": lp["lower"]}
            for stmt in nest["body"]:
                for ref in stmt["refs"]:
                    ref["subscripts"] = [
                        {"terms": {s: 1}} if isinstance(s, str) else s
                        for s in ref["subscripts"]
                    ]
        a = program_from_json(base)
        b = program_from_json(verbose)
        assert digest(canonical(a)) == digest(canonical(b))

    @pytest.mark.parametrize("mutate,fragment", [
        (lambda d: d.pop("arrays"), "missing required field"),
        (lambda d: d.update(arrays=7), "must be lists"),
        (lambda d: d.update(extra=1), "unknown fields"),
        (lambda d: d["nests"][0]["loops"][0].pop("var"), "missing required"),
        (lambda d: d["nests"][0]["body"][0]["refs"][0].update(
            subscripts=[True]), "affine"),
    ])
    def test_malformed_programs_are_rejected_with_context(self, mutate, fragment):
        doc = program_to_json(tiny_program())
        mutate(doc)
        with pytest.raises(ProtocolError, match=fragment):
            program_from_json(doc)


class TestHierarchyCodec:
    def test_preset_equals_explicit(self):
        assert hierarchy_from_json("ultrasparc_i") == ultrasparc_i()
        explicit = hierarchy_from_json(hierarchy_to_json(ultrasparc_i()))
        assert explicit == ultrasparc_i()

    def test_unknown_preset(self):
        with pytest.raises(ProtocolError, match="unknown hierarchy preset"):
            hierarchy_from_json("cray")

    def test_invalid_geometry_is_a_protocol_error(self):
        with pytest.raises(ProtocolError, match="levels\\[0\\]"):
            hierarchy_from_json({"levels": [{"size": 100, "line_size": 32}]})


class TestParseRequest:
    def test_defaults(self):
        req = parse_request({"kernel": "jacobi", "n": 32})
        assert req.strategy == "L1&L2"  # two-level default hierarchy
        assert req.search == "coordinate"
        assert req.budget == 16
        assert req.max_lines == 4
        assert req.seed == 0
        assert req.kernel is None  # jacobi has no custom trace hook

    def test_single_level_hierarchy_defaults_to_l1(self):
        req = parse_request({
            "kernel": "jacobi", "n": 32,
            "hierarchy": {"levels": [{"size": 16384, "line_size": 32}]},
        })
        assert req.strategy == "L1"

    def test_custom_trace_kernel_is_recorded(self):
        req = parse_request({"kernel": "irr500k", "n": 64, "search": "none"})
        assert req.kernel == "irr500k"

    @pytest.mark.parametrize("payload,fragment", [
        ({}, "exactly one of"),
        ({"kernel": "jacobi", "program": {}}, "exactly one of"),
        ({"kernel": "nope"}, "unknown kernel"),
        ({"kernel": "jacobi", "n": 32, "strategy": "L3"}, "unknown strategy"),
        ({"kernel": "jacobi", "n": 32, "search": "genetic"}, "unknown search"),
        ({"kernel": "jacobi", "n": 32, "budget": 0}, "budget must be"),
        ({"kernel": "jacobi", "n": 32, "max_lines": 0}, "max_lines must be"),
        ({"kernel": "jacobi", "n": 32, "frobnicate": 1}, "unknown fields"),
        ({"program": {"arrays": [], "nests": []}, "n": 3}, "only applies"),
        ({"kernel": "jacobi", "n": 32,
          "hierarchy": {"levels": [{"size": 16384, "line_size": 32}]},
          "strategy": "L1&L2"}, "needs a hierarchy with an L2"),
        ({"kernel": "jacobi", "n": 32, "search": "random"},
         "unknown search strategy 'random'; "
         "choose from none, coordinate, exhaustive, predict"),
    ])
    def test_rejections(self, payload, fragment):
        with pytest.raises(ProtocolError, match=fragment):
            parse_request(payload)


class TestRequestKey:
    def test_kernel_and_inline_ir_share_a_key(self):
        """'kernel jacobi at n' and its own IR are the same question."""
        from repro.kernels.registry import get_kernel

        by_name = parse_request({"kernel": "jacobi", "n": 32})
        inline = parse_request({
            "program": program_to_json(get_kernel("jacobi").program(32)),
        })
        assert request_key(by_name) == request_key(inline)

    def test_custom_trace_kernel_does_not_alias_inline_ir(self):
        """IRR's gathers produce a different trace than its IR suggests."""
        from repro.kernels.registry import get_kernel

        by_name = parse_request({"kernel": "irr500k", "n": 64, "search": "none"})
        inline = parse_request({
            "program": program_to_json(get_kernel("irr500k").program(64)),
            "search": "none",
        })
        assert request_key(by_name) != request_key(inline)

    def test_search_none_ignores_search_knobs(self):
        a = parse_request({"kernel": "jacobi", "n": 32, "search": "none"})
        b = parse_request({"kernel": "jacobi", "n": 32, "search": "none",
                           "budget": 99, "seed": 5, "max_lines": 7})
        assert request_key(a) == request_key(b)

    def test_search_knobs_split_keys_when_searching(self):
        a = parse_request({"kernel": "jacobi", "n": 32, "budget": 8})
        b = parse_request({"kernel": "jacobi", "n": 32, "budget": 9})
        assert request_key(a) != request_key(b)

    def test_different_questions_get_different_keys(self):
        a = parse_request({"kernel": "jacobi", "n": 32})
        b = parse_request({"kernel": "jacobi", "n": 48})
        c = parse_request({"kernel": "adi32", "n": 32})
        assert len({request_key(a), request_key(b), request_key(c)}) == 3
