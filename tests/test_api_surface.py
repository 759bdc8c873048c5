"""Odds and ends of the public API that deserve direct pinning."""

import ast
import importlib
import inspect
import pathlib
import pkgutil

import pytest

import repro

from repro import DataLayout, ProgramBuilder
from repro.ir.affine import const, var
from repro.ir.loops import LoopNest, Statement
from repro.ir.refs import ArrayRef


def prog():
    b = ProgramBuilder("p")
    A = b.array("A", (10,))
    Bm = b.array("B", (10,))
    (i,) = b.vars("i")
    b.nest([b.loop(i, 1, 10)], [b.assign(Bm[i], reads=[A[i]], flops=1)])
    return b.build()


class TestLayoutOddsAndEnds:
    def test_end_is_base_plus_size(self):
        lay = DataLayout.sequential(prog())
        assert lay.sizes == (80, 80)
        assert lay.base("B") == lay.base("A") + 80
        assert lay.total_bytes == 160

    def test_bases_dict_matches_base(self):
        lay = DataLayout.sequential(prog()).add_pad("B", 32)
        bases = lay.bases()
        for name in lay.order:
            assert bases[name] == lay.base(name)

    def test_origin_must_be_nonnegative(self):
        from repro.errors import LayoutError

        with pytest.raises(LayoutError):
            DataLayout(order=("A",), pads=(0,), sizes=(8,), origin=-1)


class TestProgramOddsAndEnds:
    def test_with_loops_with_body(self):
        p = prog()
        nest = p.nests[0]
        same = nest.with_loops(nest.loops)
        assert same == nest
        rebodied = nest.with_body(
            (Statement((ArrayRef("A", (var("i"),)),)),)
        )
        assert rebodied.refs_per_iteration == 1

    def test_innermost(self):
        p = prog()
        assert p.nests[0].loops[-1].var == "i"


class TestAffineReprEdges:
    def test_negative_constant_repr(self):
        assert repr(var("i") - 3) == "i - 3"

    def test_coefficient_repr(self):
        assert repr(3 * var("i")) == "3*i"
        assert repr(-var("j")) == "-j"

    def test_constant_only(self):
        assert repr(const(-5)) == "-5"


class TestSearchExports:
    """The autotuning subsystem is re-exported from the package root."""

    SEARCH_NAMES = [
        "SearchSpace",
        "pad_space",
        "pad_tile_space",
        "ExhaustiveSearch",
        "CoordinateDescent",
        "PredictThenVerifyStrategy",
        "model_objective",
        "Autotuner",
        "SearchReport",
    ]

    def test_names_in_package_all(self):
        import repro

        for name in self.SEARCH_NAMES:
            assert name in repro.__all__
            assert getattr(repro, name) is not None

    def test_root_exports_match_subpackage(self):
        import repro
        import repro.search

        for name in self.SEARCH_NAMES:
            assert getattr(repro, name) is getattr(repro.search, name)

    def test_strategy_registry_names(self):
        from repro.search import STRATEGIES, get_strategy

        assert set(STRATEGIES) == {"exhaustive", "coordinate", "predict"}
        for name in STRATEGIES:
            assert get_strategy(name).name == name


class TestObsExports:
    """The observability layer is re-exported from the package root."""

    OBS_NAMES = [
        "Tracer",
        "MetricsRegistry",
        "Timeline",
        "TraceDiff",
        "diff_traces",
        "format_prometheus",
        "get_tracer",
        "get_metrics",
        "set_timeline_window",
        "start_tracing",
        "stop_tracing",
    ]

    def test_names_in_package_all(self):
        import repro

        for name in self.OBS_NAMES:
            assert name in repro.__all__
            assert getattr(repro, name) is not None

    def test_root_exports_match_subpackage(self):
        import repro
        import repro.obs

        for name in self.OBS_NAMES:
            assert getattr(repro, name) is getattr(repro.obs, name)

    def test_default_tracer_is_the_disabled_singleton(self):
        from repro.obs import NULL_TRACER, get_tracer

        assert get_tracer() is NULL_TRACER
        assert NULL_TRACER.enabled is False


class TestFuzzExports:
    """The fuzzing entry points are re-exported from the package root."""

    FUZZ_NAMES = [
        "FuzzConfig",
        "random_program",
        "run_campaign",
        "shrink_program",
    ]

    def test_names_in_package_all(self):
        import repro

        for name in self.FUZZ_NAMES:
            assert name in repro.__all__
            assert getattr(repro, name) is not None

    def test_root_exports_match_subpackage(self):
        import repro
        import repro.fuzz

        for name in self.FUZZ_NAMES:
            assert getattr(repro, name) is getattr(repro.fuzz, name)

    def test_subpackage_surface(self):
        import repro.fuzz

        for name in (
            "program_stream", "diff_case", "oracle_simulate",
            "CorpusCase", "save_case", "load_corpus", "corpus_known_seeds",
            "FUZZ_HIERARCHIES", "MODEL_BANDS", "repro_command",
        ):
            assert name in repro.fuzz.__all__
            assert getattr(repro.fuzz, name) is not None


class TestSymbolicExports:
    """The exactness proof's entry point is re-exported from the root."""

    SYMBOLIC_NAMES = ["classify_job"]

    def test_names_in_package_all(self):
        import repro

        for name in self.SYMBOLIC_NAMES + ["BACKENDS", "fuzzed_workloads"]:
            assert name in repro.__all__
            assert getattr(repro, name) is not None

    def test_root_exports_match_subpackage(self):
        import repro
        import repro.symbolic

        for name in self.SYMBOLIC_NAMES:
            assert getattr(repro, name) is getattr(repro.symbolic, name)

    def test_subpackage_surface(self):
        import repro.symbolic

        for name in (
            "LevelClassification", "classify_program", "classify_job",
            "MAX_OFFSETS", "MAX_ROWS", "distinct_offsets",
            "distinct_lines", "max_set_occupancy",
        ):
            assert name in repro.symbolic.__all__
            assert getattr(repro.symbolic, name) is not None

    def test_one_estimator(self):
        """The symbolic result layer is gone: ``predict_job`` is the
        only estimator, and ``analyze_job`` is an unexported alias."""
        import repro
        import repro.symbolic
        from repro.model import PredictedStats

        for name in ("SymbolicStats", "SymbolicTerm", "SymbolicLevel",
                     "TERM_KINDS", "analyze_program", "analyze_job"):
            assert name not in repro.__all__
            assert name not in repro.symbolic.__all__
        assert not hasattr(repro.symbolic, "SymbolicStats")
        assert not hasattr(repro.symbolic, "analyze_program")
        assert not hasattr(PredictedStats, "to_predicted")

    def test_symbolic_does_not_import_model(self):
        """The dependency runs model -> symbolic: no module of
        ``repro.symbolic`` imports ``repro.model`` at import time."""
        import ast
        import pathlib

        import repro.symbolic

        root = pathlib.Path(repro.symbolic.__file__).parent
        for path in root.glob("*.py"):
            tree = ast.parse(path.read_text())
            for node in tree.body:  # module level only
                if isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                elif isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                assert not any(n.startswith("repro.model") for n in names), path

    def test_exec_exports_backend_surface(self):
        import repro.exec

        for name in ("BACKENDS", "run_oracle", "validate_backend"):
            assert name in repro.exec.__all__
            assert getattr(repro.exec, name) is not None

    def test_exec_exports_scheduler_and_shard_surface(self):
        import repro.exec

        for name in (
            "WorkerPool", "ShardSpec", "parse_shard",
            "merge_stores", "merge_traces", "job_cost", "estimate_job_refs",
        ):
            assert name in repro.exec.__all__
            assert getattr(repro.exec, name) is not None


class TestServiceExports:
    """The tuning service's entry points are re-exported from the root."""

    SERVICE_NAMES = [
        "ServiceConfig",
        "TuningClient",
        "TuningRequest",
        "TuningService",
    ]

    def test_names_in_package_all(self):
        import repro

        for name in self.SERVICE_NAMES:
            assert name in repro.__all__
            assert getattr(repro, name) is not None

    def test_root_exports_match_subpackage(self):
        import repro
        import repro.service

        for name in self.SERVICE_NAMES:
            assert getattr(repro, name) is getattr(repro.service, name)

    def test_subpackage_surface(self):
        import repro.service

        for name in (
            "SERVICE_SCHEMA", "ProtocolError", "parse_request",
            "request_key", "program_to_json", "program_from_json",
            "hierarchy_to_json", "hierarchy_from_json", "run_tuning",
            "TuningStore", "TuningQueue",
            "ServiceSaturated", "ServiceDraining", "serve",
        ):
            assert name in repro.service.__all__
            assert getattr(repro.service, name) is not None


class TestCacheSimulatorExports:
    """One core per cache kind, one hierarchy, and a separate oracle."""

    def test_vectorized_assoc_names(self):
        import repro.cache

        names = ("miss_mask_assoc_vec", "StreamingAssocCache", "StreamingHierarchy")
        for name in names:
            assert name in repro.cache.__all__
            assert getattr(repro.cache, name) is not None

    def test_oracle_kept_apart_from_streaming(self):
        import repro.cache.assoc as oracle
        import repro.cache.streaming as streaming

        assert set(streaming.__all__) == {
            "StreamingDirectCache", "StreamingAssocCache", "StreamingHierarchy",
        }
        assert set(oracle.__all__) == {
            "SequentialAssocCache", "miss_mask_assoc", "replay_hierarchy",
        }
        assert not hasattr(streaming, "SequentialAssocCache")


class TestKernelTraceDefaultPath:
    def test_affine_kernel_uses_generator(self):
        import numpy as np

        from repro.kernels.registry import get_kernel
        from repro.trace.generator import generate_trace

        k = get_kernel("jacobi")
        p = k.program(12)
        lay = DataLayout.sequential(p)
        via_hook = np.concatenate(list(k.trace_chunks(p, lay)))
        np.testing.assert_array_equal(via_hook, generate_trace(p, lay))


PACKAGES = ["repro"] + sorted(
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__)
    if info.ispkg
)


def export_table(package: str) -> dict[str, str]:
    """Name -> module, as the package's ``__init__`` declares it."""
    path = pathlib.Path(importlib.import_module(package).__file__)
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "lazy_exports":
            table = ast.literal_eval(node.args[1])
            return {name: module for module, names in table.items() for name in names}
    raise AssertionError(f"{package} does not export through lazy_exports")


@pytest.mark.parametrize("package", PACKAGES)
class TestEveryPackageExport:
    """Each package's ``__all__`` resolves lazily to its module's objects."""

    def test_all_is_the_export_table(self, package):
        pkg = importlib.import_module(package)
        assert set(pkg.__all__) - {"__version__"} == set(export_table(package))
        assert len(pkg.__all__) == len(set(pkg.__all__))

    def test_every_name_resolves_to_its_modules_object(self, package):
        pkg = importlib.import_module(package)
        listed = dir(pkg)
        for name, module in export_table(package).items():
            value = getattr(pkg, name)
            assert name in listed
            assert value is getattr(importlib.import_module(module), name)
            if package != "repro" and (inspect.isclass(value) or inspect.isfunction(value)):
                # The table names the defining module, not a re-exporter.
                assert value.__module__ == module, name

    def test_unknown_names_raise_attribute_error(self, package):
        pkg = importlib.import_module(package)
        with pytest.raises(AttributeError):
            pkg.no_such_export
        assert not hasattr(pkg, "no_such_export")
