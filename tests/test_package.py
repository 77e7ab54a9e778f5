"""Package-level tests: exports, exception hierarchy, docstring examples."""

import doctest
import importlib

import pytest

import repro
from repro import exceptions


class TestExports:
    @pytest.mark.parametrize(
        "module_name",
        [
            "repro",
            "repro.graphs",
            "repro.qubo",
            "repro.hamiltonian",
            "repro.qhd",
            "repro.solvers",
            "repro.community",
            "repro.datasets",
            "repro.experiments",
            "repro.utils",
        ],
    )
    def test_all_names_resolve(self, module_name):
        module = importlib.import_module(module_name)
        assert hasattr(module, "__all__")
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.{name} missing"

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_top_level_api(self):
        assert callable(repro.QhdCommunityDetector)
        assert callable(repro.QhdSolver)
        assert callable(repro.Graph)
        assert callable(repro.QuboModel)


class TestExceptionHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            exceptions.GraphError,
            exceptions.QuboError,
            exceptions.SolverError,
            exceptions.ScheduleError,
            exceptions.SimulationError,
            exceptions.PartitionError,
            exceptions.DatasetError,
            exceptions.ExperimentError,
        ],
    )
    def test_derive_from_base(self, exc):
        assert issubclass(exc, exceptions.ReproError)
        assert issubclass(exc, Exception)

    def test_catchable_as_base(self):
        with pytest.raises(exceptions.ReproError):
            raise exceptions.GraphError("boom")


# Modules whose docstring examples are fast enough to execute in tests.
DOCTEST_MODULES = [
    "repro.utils.rng",
    "repro.utils.timer",
    "repro.graphs.graph",
    "repro.graphs.generators",
    "repro.graphs.lfr",
    "repro.qubo.model",
    "repro.qubo.builders",
    "repro.qubo.decode",
    "repro.qubo.sparse",
    "repro.qubo.delta",
    "repro.qhd.engine",
    "repro.solvers.base",
    "repro.api.config",
    "repro.api.registry",
    "repro.api.runner",
    "repro.api.session",
    "repro.api.spec",
    "repro.api.threads",
    "repro.hamiltonian.grid",
    "repro.hamiltonian.schedules",
    "repro.community.modularity",
    "repro.community.partition",
    "repro.community.louvain",
    "repro.community.metrics",
    "repro.experiments.reporting",
    "repro.solvers.bruteforce",
    "repro.solvers.portfolio",
]


class TestDocstringExamples:
    @pytest.mark.parametrize("module_name", DOCTEST_MODULES)
    def test_doctests_pass(self, module_name):
        module = importlib.import_module(module_name)
        results = doctest.testmod(
            module,
            optionflags=doctest.NORMALIZE_WHITESPACE,
            verbose=False,
        )
        assert results.failed == 0, (
            f"{results.failed} doctest failure(s) in {module_name}"
        )
