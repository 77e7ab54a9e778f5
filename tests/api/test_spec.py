"""RunSpec / RunArtifact round-trips and validation."""

import json

import pytest

import repro.api as api
from repro.api import ConfigError, RunArtifact, RunSpec, SpecError
from repro.graphs.generators import ring_of_cliques


class TestRunSpec:
    def test_defaults(self):
        spec = RunSpec()
        assert spec.detector == "qhd"
        assert spec.solver is None
        assert spec.detector_config == {}

    def test_dict_roundtrip(self):
        spec = RunSpec(
            detector="multilevel",
            detector_config={"config": {"threshold": 40}},
            solver="tabu",
            solver_config={"n_iterations": 100},
            n_communities=4,
            seed=11,
        )
        assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_json_roundtrip(self):
        spec = RunSpec(solver="greedy", n_communities=3, seed=0)
        assert RunSpec.from_json(spec.to_json()) == spec

    def test_file_roundtrip(self, tmp_path):
        spec = RunSpec(solver="simulated-annealing", n_communities=2)
        path = tmp_path / "spec.json"
        path.write_text(spec.to_json(), encoding="utf-8")
        assert RunSpec.from_file(path) == spec

    def test_unknown_keys_rejected(self):
        with pytest.raises(SpecError, match="unknown spec keys"):
            RunSpec.from_dict({"solver": "qhd", "communities": 4})

    def test_non_dict_rejected(self):
        with pytest.raises(SpecError, match="must be a dict"):
            RunSpec.from_dict(["qhd"])

    def test_empty_detector_rejected(self):
        with pytest.raises(SpecError, match="detector"):
            RunSpec(detector="")

    def test_config_must_be_dict(self):
        with pytest.raises(SpecError, match="solver_config"):
            RunSpec(solver_config=[1, 2])

    def test_solver_config_requires_solver(self):
        # Without a solver name the detector builds its own default
        # solver and a dangling solver_config would be silently
        # dropped — reject it at spec construction instead.
        with pytest.raises(SpecError, match="solver_config requires"):
            RunSpec(solver_config={"n_sweeps": 5}, n_communities=3)

    def test_replace(self):
        spec = RunSpec(n_communities=2)
        assert spec.replace(n_communities=5).n_communities == 5
        assert spec.n_communities == 2


class TestSpecValues:
    """Malformed counts, seeds and solver configs fail as ReproErrors."""

    @pytest.mark.parametrize("value", [0, -2, 2.5, "3", True])
    def test_bad_n_communities_rejected(self, value):
        with pytest.raises(SpecError, match="n_communities"):
            RunSpec.from_dict({"n_communities": value})
        with pytest.raises(SpecError, match="n_communities"):
            RunSpec().replace(n_communities=value)

    @pytest.mark.parametrize("value", ["x", -1, 1.5, True])
    def test_bad_seed_rejected(self, value):
        with pytest.raises(SpecError, match="seed"):
            RunSpec.from_dict({"seed": value})
        with pytest.raises(SpecError, match="seed"):
            RunSpec().replace(seed=value)

    @pytest.mark.parametrize(
        "solver, config, owner",
        [
            ("greedy", {"n_restarts": 0}, "GreedySolver"),
            ("greedy", {"n_restarts": 1.5}, "GreedySolver"),
            ("qhd", {"n_steps": -3}, "QhdSolver"),
        ],
    )
    def test_bad_solver_config_is_a_config_error(
        self, solver, config, owner
    ):
        spec = RunSpec(
            solver=solver, solver_config=config, n_communities=2, seed=0
        )
        with pytest.raises(ConfigError, match=owner):
            api.detect(ring_of_cliques(3, 4)[0], spec)


class TestRunArtifact:
    def test_to_dict_is_json_serialisable(self):
        from repro.graphs import ring_of_cliques
        import repro.api as api

        graph, _ = ring_of_cliques(3, 5)
        spec = RunSpec(
            solver="greedy",
            solver_config={"n_restarts": 2},
            n_communities=3,
            seed=0,
        )
        artifact = api.detect(graph, spec)
        data = json.loads(artifact.to_json())
        assert data["spec"] == spec.to_dict()
        assert data["seed"] == 0
        assert data["index"] == 0
        assert set(data["timings"]) == {"build", "run", "total"}
        assert data["result"]["n_communities"] == 3
        assert len(data["result"]["labels"]) == graph.n_nodes
        assert data["result"]["solve_result"]["solver_name"] == "greedy"
