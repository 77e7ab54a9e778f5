"""Request-wire contracts: parse/reject and the time-limit merge."""

from __future__ import annotations

import pytest

from repro.api.spec import RunSpec
from repro.server.wire import (
    WireError,
    apply_time_limit,
    parse_detect_request,
    parse_solve_request,
    parse_time_limit,
)

DETECT_BODY = {
    "graph": {"n_nodes": 4, "edges": [[0, 1], [1, 2, 2.0], [2, 3]]},
    "spec": {"solver": "greedy", "n_communities": 2, "seed": 0},
}

SOLVE_BODY = {
    "qubo": {
        "quadratic": [[0.0, 1.0], [1.0, 0.0]],
        "linear": [-1.0, 1.0],
        "offset": 0.5,
    },
    "spec": {"solver": "greedy", "seed": 0},
}


class TestParseDetect:
    def test_round_trip(self):
        graph, spec = parse_detect_request(DETECT_BODY)
        assert graph.n_nodes == 4
        assert graph.n_edges == 3
        assert spec.solver == "greedy"
        assert spec.n_communities == 2

    def test_weighted_and_unweighted_edges_mix(self):
        graph, _ = parse_detect_request(DETECT_BODY)
        assert graph.total_weight == pytest.approx(4.0)

    @pytest.mark.parametrize(
        "body, match",
        [
            ([1, 2], "JSON object"),
            ({}, "'graph'"),
            ({"graph": 3, "spec": {}}, "JSON object"),
            ({"graph": {"edges": []}, "spec": {}}, "n_nodes"),
            ({"graph": {"n_nodes": 2}, "spec": {}}, "edges"),
            (
                {"graph": {"n_nodes": 2, "edges": [[0]]}, "spec": {}},
                "invalid graph",
            ),
            (
                {"graph": {"n_nodes": 2, "edges": []}},
                "'spec'",
            ),
            (
                {
                    "graph": {"n_nodes": 2, "edges": []},
                    "spec": {"no_such_key": 1},
                },
                "invalid spec",
            ),
            (
                {
                    "graph": {"n_nodes": 2, "edges": []},
                    "spec": {},
                    "bogus": 1,
                },
                "unknown request keys",
            ),
            (
                {
                    "graph": {"n_nodes": 2, "edges": [], "extra": 1},
                    "spec": {},
                },
                "unknown graph keys",
            ),
        ],
    )
    def test_malformed_bodies_rejected(self, body, match):
        with pytest.raises(WireError, match=match):
            parse_detect_request(body)

    @pytest.mark.parametrize(
        "edges",
        [
            [[0, 1.5]],
            [[0, 1], [2.5, 1, 1.0]],
            [["0", "1"], [1, 2]],
            [[True, 2], [1, 2]],
        ],
        ids=["pair", "triple", "string", "bool"],
    )
    def test_fractional_node_id_rejected(self, edges):
        body = {"graph": {"n_nodes": 3, "edges": edges}, "spec": {}}
        with pytest.raises(WireError, match="non-integer node id"):
            parse_detect_request(body)

    def test_string_weight_rejected(self):
        body = {"graph": {"n_nodes": 3, "edges": [[0, 1, "2.5"]]}, "spec": {}}
        with pytest.raises(WireError, match="non-numeric weight"):
            parse_detect_request(body)


class TestParseSolve:
    def test_round_trip(self):
        model, spec = parse_solve_request(SOLVE_BODY)
        assert model.n_variables == 2
        assert model.offset == 0.5
        assert spec.solver == "greedy"

    def test_linear_and_offset_optional(self):
        model, _ = parse_solve_request(
            {
                "qubo": {"quadratic": [[0.0, 1.0], [1.0, 0.0]]},
                "spec": {"solver": "greedy", "seed": 0},
            }
        )
        assert model.offset == 0.0

    @pytest.mark.parametrize(
        "body, match",
        [
            ({}, "'qubo'"),
            ({"qubo": {}, "spec": {}}, "quadratic"),
            (
                {"qubo": {"quadratic": "nope"}, "spec": {}},
                "invalid qubo",
            ),
            (
                {
                    "qubo": {"quadratic": [[0.0]], "weird": 1},
                    "spec": {},
                },
                "unknown qubo keys",
            ),
        ],
    )
    def test_malformed_bodies_rejected(self, body, match):
        with pytest.raises(WireError, match=match):
            parse_solve_request(body)


class TestTimeLimit:
    def test_absent_is_none(self):
        assert parse_time_limit({}) is None

    @pytest.mark.parametrize("value", ["2", True, -1.0, 0])
    def test_invalid_values_rejected(self, value):
        with pytest.raises(WireError, match="time_limit"):
            parse_time_limit({"time_limit": value})

    def test_named_solver_gets_budget(self):
        spec = RunSpec.from_dict(
            {"solver": "simulated-annealing", "seed": 0}
        )
        merged = apply_time_limit(spec, 1.5)
        assert merged.solver_config["time_limit"] == 1.5

    def test_pinned_budget_wins(self):
        spec = RunSpec.from_dict(
            {
                "solver": "simulated-annealing",
                "solver_config": {"time_limit": 9.0},
                "seed": 0,
            }
        )
        assert apply_time_limit(spec, 1.5).solver_config[
            "time_limit"
        ] == 9.0

    def test_default_qhd_solver_named_explicitly(self):
        spec = RunSpec.from_dict({"n_communities": 3, "seed": 0})
        merged = apply_time_limit(spec, 2.0)
        assert merged.solver == "qhd"
        assert merged.solver_config["time_limit"] == 2.0

    def test_none_is_identity(self):
        spec = RunSpec.from_dict({"solver": "greedy", "seed": 0})
        assert apply_time_limit(spec, None) is spec
