"""Package-level sanity tests: public API integrity."""

import ast
import importlib
from pathlib import Path

import pytest

import repro

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

SUBPACKAGES = [
    "graphs",
    "sync",
    "core",
    "fastpath",
    "parallel",
    "service",
    "asynchrony",
    "baselines",
    "variants",
    "analysis",
    "viz",
    "apps",
    "experiments",
]


class TestPublicSurface:
    def test_version_string(self):
        assert repro.__version__.count(".") == 2

    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_subpackage_importable(self, name):
        module = importlib.import_module(f"repro.{name}")
        assert module is not None

    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_all_exports_resolve(self, name):
        """Every name in __all__ must actually exist in the module."""
        module = importlib.import_module(f"repro.{name}")
        exported = getattr(module, "__all__", [])
        assert exported, f"repro.{name} exports nothing"
        for symbol in exported:
            assert hasattr(module, symbol), f"repro.{name}.{symbol} missing"

    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_exports_have_docstrings(self, name):
        """Public callables and classes carry documentation."""
        module = importlib.import_module(f"repro.{name}")
        for symbol in getattr(module, "__all__", []):
            obj = getattr(module, symbol)
            if getattr(obj, "__module__", "") == "typing":
                continue  # type aliases carry no docstrings
            if callable(obj) or isinstance(obj, type):
                assert obj.__doc__, f"repro.{name}.{symbol} lacks a docstring"

    def test_top_level_all(self):
        for symbol in repro.__all__:
            assert hasattr(repro, symbol)


class TestRequestSurface:
    """The one request surface, pinned name for name.

    A change here is an API change: the exports and public methods below
    are everything a caller (and the repository benchmark) may rely on.
    """

    EXPORTS = {
        "fastpath": [
            "ArcSchedule", "BITSET_MIN_BATCH", "IndexedGraph", "IndexedRun",
            "NUMPY_ARC_THRESHOLD", "NUMPY_MIN_MEAN_DEGREE", "ORACLE",
            "VariantSpec", "VariantSummary", "arc_mask_of",
            "available_backends", "batch_key_of", "bernoulli_loss",
            "configuration_of_mask", "dispatch_batch", "dynamic_schedule",
            "ensure_homogeneous_specs", "evolve_arc_mask", "k_memory",
            "multi_message", "periodic_injection", "probe_termination_rounds",
            "random_delay", "run_spec", "select_backend", "step_arc_mask",
            "sweep_specs", "thinning", "variant_backend",
            "variant_default_budget", "variant_survey",
        ],
        "parallel": [
            "MAX_CHUNK", "MIN_PARALLEL_BATCH", "MIN_PARALLEL_CENSUS",
            "SweepPool", "classify_masks", "default_chunksize",
            "receipt_counts", "serial_batch_ids", "worker_count",
        ],
        "service": [
            "FloodService", "MicroBatcher", "QueryTimeout", "QueueFull",
            "ServiceClosed", "ServiceError", "ServiceStats",
        ],
    }

    METHODS = {
        ("repro.api", "FloodSession"): [
            "aclose", "aquery", "cache_stats", "close", "plan", "run", "sweep",
        ],
        ("repro.service", "FloodService"): [
            "cache_stats", "close", "pending", "query_batch_specs",
            "query_spec", "register", "result_cache",
        ],
        ("repro.parallel", "SweepPool"): [
            "close", "submit_batch", "submit_ids", "sweep_specs", "terminate",
        ],
    }

    @pytest.mark.parametrize("name", sorted(EXPORTS))
    def test_exact_exports(self, name):
        module = importlib.import_module(f"repro.{name}")
        assert sorted(module.__all__) == sorted(self.EXPORTS[name])

    @pytest.mark.parametrize("owner", sorted(METHODS), ids=lambda o: o[1])
    def test_public_methods(self, owner):
        cls = getattr(importlib.import_module(owner[0]), owner[1])
        public = sorted(name for name in vars(cls) if not name.startswith("_"))
        assert public == sorted(self.METHODS[owner])

    def test_benchmark_imports_resolve(self):
        """Every ``from repro... import X`` in ``perfbench/*.py`` resolves."""
        checked = 0
        for path in sorted(PERFBENCH.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if not isinstance(node, ast.ImportFrom):
                    continue
                if not (node.module or "").startswith("repro"):
                    continue
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name) or importlib.import_module(
                        f"{node.module}.{alias.name}"
                    ), f"{path.name}: {node.module}.{alias.name}"
                    checked += 1
        assert checked > 0, "no repro imports found under perfbench/"

    def test_benchmark_attribute_reads_resolve(self):
        """Attributes ``perfbench/layers.py`` reads off the facade objects."""
        from repro.api import FloodSession, FloodSpec
        from repro.graphs import cycle_graph

        assert FloodSpec(graph=cycle_graph(5), sources=(0,)).probe is True
        with FloodSession(workers=0) as session:
            assert session._service is None


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        from repro import errors

        leaf_errors = [
            errors.GraphError,
            errors.NodeNotFoundError,
            errors.EdgeNotFoundError,
            errors.DisconnectedGraphError,
            errors.SimulationError,
            errors.NonTerminationError,
            errors.ConfigurationError,
        ]
        for error_type in leaf_errors:
            assert issubclass(error_type, errors.ReproError)

    def test_node_not_found_carries_node(self):
        from repro.errors import NodeNotFoundError

        error = NodeNotFoundError("x")
        assert error.node == "x"
        assert "x" in str(error)

    def test_nontermination_carries_rounds(self):
        from repro.errors import NonTerminationError

        error = NonTerminationError(42)
        assert error.rounds == 42
        assert "42" in str(error)

    def test_one_except_catches_everything(self):
        from repro.errors import ReproError
        from repro.graphs import path_graph
        from repro.core import simulate

        with pytest.raises(ReproError):
            simulate(path_graph(3), [])
        with pytest.raises(ReproError):
            path_graph(3).neighbors(99)
