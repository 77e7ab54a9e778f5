"""Tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.graphs.generators import ring_of_cliques
from repro.graphs.io import write_edge_list


@pytest.fixture
def graph_file(tmp_path):
    graph, _ = ring_of_cliques(3, 5)
    path = tmp_path / "graph.txt"
    write_edge_list(graph, path)
    return path


class TestParser:
    def test_detect_args(self):
        parser = build_parser()
        args = parser.parse_args(
            ["detect", "--input", "g.txt", "--communities", "4"]
        )
        assert args.command == "detect"
        assert args.communities == 4
        assert args.solver == "qhd"

    def test_bench_args(self):
        parser = build_parser()
        args = parser.parse_args(
            ["bench", "--experiment", "fig3", "--scale", "0.5"]
        )
        assert args.experiment == "fig3"
        assert args.scale == 0.5

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestDetectCommand:
    def test_detect_with_sa(self, graph_file, capsys):
        code = main(
            [
                "detect",
                "--input",
                str(graph_file),
                "--communities",
                "3",
                "--solver",
                "simulated-annealing",
                "--seed",
                "0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "modularity:" in out
        assert "communities:" in out

    def test_detect_writes_labels(self, graph_file, tmp_path, capsys):
        out_file = tmp_path / "labels.txt"
        code = main(
            [
                "detect",
                "--input",
                str(graph_file),
                "--communities",
                "3",
                "--solver",
                "greedy",
                "--seed",
                "0",
                "--output",
                str(out_file),
            ]
        )
        assert code == 0
        labels = np.loadtxt(out_file, dtype=int)
        assert len(labels) == 15

    def test_detect_print_labels(self, graph_file, capsys):
        code = main(
            [
                "detect",
                "--input",
                str(graph_file),
                "--communities",
                "3",
                "--solver",
                "greedy",
                "--print-labels",
            ]
        )
        assert code == 0
        assert "labels:" in capsys.readouterr().out

    def test_unknown_solver_exits(self, graph_file):
        with pytest.raises(SystemExit, match="unknown solver"):
            main(
                [
                    "detect",
                    "--input",
                    str(graph_file),
                    "--communities",
                    "2",
                    "--solver",
                    "gurobi",
                ]
            )

    def test_detect_with_qhd(self, graph_file, capsys):
        code = main(
            [
                "detect",
                "--input",
                str(graph_file),
                "--communities",
                "3",
                "--solver",
                "qhd",
                "--seed",
                "1",
            ]
        )
        assert code == 0
        assert "direct-qubo[qhd]" in capsys.readouterr().out


class TestListSolvers:
    def test_lists_registries_and_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--list-solvers"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "simulated-annealing" in out
        assert "branch-and-bound" in out
        assert "multilevel" in out


class TestSpecDriven:
    def _write_spec(self, tmp_path, spec):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        return path

    def test_detect_from_spec(self, graph_file, tmp_path, capsys):
        spec_file = self._write_spec(
            tmp_path,
            {
                "detector": "qhd",
                "solver": "simulated-annealing",
                "solver_config": {"n_sweeps": 30, "n_restarts": 2},
                "n_communities": 3,
                "seed": 0,
            },
        )
        code = main(
            [
                "detect",
                "--input",
                str(graph_file),
                "--spec",
                str(spec_file),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "direct-qubo[simulated-annealing]" in out

    def test_spec_writes_artifact(self, graph_file, tmp_path, capsys):
        spec_file = self._write_spec(
            tmp_path,
            {"solver": "greedy", "n_communities": 3, "seed": 1},
        )
        artifact_file = tmp_path / "artifact.json"
        code = main(
            [
                "detect",
                "--input",
                str(graph_file),
                "--spec",
                str(spec_file),
                "--artifact",
                str(artifact_file),
            ]
        )
        assert code == 0
        data = json.loads(artifact_file.read_text(encoding="utf-8"))
        assert data["spec"]["solver"] == "greedy"
        assert data["result"]["n_communities"] == 3
        assert len(data["result"]["labels"]) == 15

    def test_cli_communities_overrides_spec(
        self, graph_file, tmp_path, capsys
    ):
        spec_file = self._write_spec(
            tmp_path,
            {"solver": "greedy", "n_communities": 2, "seed": 0},
        )
        code = main(
            [
                "detect",
                "--input",
                str(graph_file),
                "--spec",
                str(spec_file),
                "--communities",
                "3",
            ]
        )
        assert code == 0
        assert "communities: 3" in capsys.readouterr().out

    def test_spec_without_communities_exits(
        self, graph_file, tmp_path
    ):
        spec_file = self._write_spec(tmp_path, {"solver": "greedy"})
        with pytest.raises(SystemExit, match="n_communities"):
            main(
                [
                    "detect",
                    "--input",
                    str(graph_file),
                    "--spec",
                    str(spec_file),
                ]
            )

    def test_missing_communities_without_spec_exits(self, graph_file):
        with pytest.raises(SystemExit, match="--communities"):
            main(["detect", "--input", str(graph_file)])

    def test_time_limit_merges_into_spec_solver(
        self, graph_file, tmp_path
    ):
        spec_file = self._write_spec(
            tmp_path,
            {"solver": "tabu", "n_communities": 3, "seed": 0},
        )
        artifact_file = tmp_path / "artifact.json"
        code = main(
            [
                "detect",
                "--input",
                str(graph_file),
                "--spec",
                str(spec_file),
                "--time-limit",
                "5",
                "--artifact",
                str(artifact_file),
            ]
        )
        assert code == 0
        data = json.loads(artifact_file.read_text(encoding="utf-8"))
        assert data["spec"]["solver_config"]["time_limit"] == 5.0

    def test_time_limit_applies_to_default_detector_solver(
        self, graph_file, tmp_path
    ):
        # A spec without a top-level solver uses the detector's default
        # QHD solver, which accepts a budget — the flag must reach it
        # (as an explicit, reloadable solver spec), not be dropped.
        spec_file = self._write_spec(
            tmp_path, {"n_communities": 3, "seed": 0}
        )
        artifact_file = tmp_path / "artifact.json"
        code = main(
            [
                "detect",
                "--input",
                str(graph_file),
                "--spec",
                str(spec_file),
                "--time-limit",
                "5",
                "--artifact",
                str(artifact_file),
            ]
        )
        assert code == 0
        data = json.loads(artifact_file.read_text(encoding="utf-8"))
        assert data["spec"]["solver"] == "qhd"
        assert data["spec"]["solver_config"]["time_limit"] == 5.0

    def test_time_limit_pinned_by_spec_warns(self, graph_file, tmp_path):
        spec_file = self._write_spec(
            tmp_path,
            {
                "solver": "tabu",
                "solver_config": {"time_limit": 1.0},
                "n_communities": 3,
                "seed": 0,
            },
        )
        with pytest.warns(RuntimeWarning, match="--time-limit is ignored"):
            code = main(
                [
                    "detect",
                    "--input",
                    str(graph_file),
                    "--spec",
                    str(spec_file),
                    "--time-limit",
                    "5",
                ]
            )
        assert code == 0

    def test_flag_artifact_spec_is_reloadable(
        self, graph_file, tmp_path, capsys
    ):
        import repro.api as api

        artifact_file = tmp_path / "artifact.json"
        code = main(
            [
                "detect",
                "--input",
                str(graph_file),
                "--communities",
                "3",
                "--solver",
                "greedy",
                "--seed",
                "0",
                "--artifact",
                str(artifact_file),
            ]
        )
        assert code == 0
        data = json.loads(artifact_file.read_text(encoding="utf-8"))
        # The persisted spec must be declarative (no repr'd live
        # objects) and reproduce the run when fed back through the api.
        spec = api.RunSpec.from_dict(data["spec"])
        assert spec.detector_config["solver"]["name"] == "greedy"
        from repro.graphs.io import read_edge_list

        rerun = api.detect(read_edge_list(graph_file), spec)
        assert rerun.result.labels.tolist() == data["result"]["labels"]


class TestStreamCommand:
    SPEC = {"detector": "direct", "solver": "greedy",
            "n_communities": 3, "seed": 7}
    BATCHES = [
        [{"op": "insert", "u": 0, "v": 9, "w": 2.0},
         {"op": "delete", "u": 0, "v": 1}],
        {"op": "reweight", "u": 3, "v": 4, "w": 0.5},
    ]

    def _files(self, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(self.SPEC), encoding="utf-8")
        events = tmp_path / "events.jsonl"
        events.write_text(
            "".join(json.dumps(batch) + "\n" for batch in self.BATCHES),
            encoding="utf-8",
        )
        return spec_file, events

    def test_stream_prints_batches_and_writes_artifacts(
        self, graph_file, tmp_path, capsys
    ):
        import repro.api as api
        from repro.graphs.io import read_edge_list

        spec_file, events = self._files(tmp_path)
        artifact_file = tmp_path / "stream.json"
        code = main(
            [
                "stream",
                "--input",
                str(graph_file),
                "--spec",
                str(spec_file),
                "--updates",
                str(events),
                "--artifact",
                str(artifact_file),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert sum(line.startswith("batch ") for line in out) == 2
        assert not any(line.startswith("executor:") for line in out)
        data = json.loads(artifact_file.read_text(encoding="utf-8"))
        updates = [
            [batch] if isinstance(batch, dict) else batch
            for batch in self.BATCHES
        ]
        expected = api.detect_stream(
            read_edge_list(graph_file), updates, self.SPEC
        )
        assert len(data) == 2
        for entry, artifact in zip(data, expected):
            assert entry["result"]["labels"] == (
                artifact.result.labels.tolist()
            )

    def test_stream_has_no_executor_flags(self, graph_file, tmp_path):
        spec_file, events = self._files(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "stream",
                    "--input",
                    str(graph_file),
                    "--spec",
                    str(spec_file),
                    "--updates",
                    str(events),
                    "--executor",
                    "thread",
                ]
            )
        assert excinfo.value.code == 2


class TestBadInputExitsInOneLine:
    """Bad files and values end in a one-line message, not a traceback."""

    @pytest.fixture
    def paths(self, graph_file, tmp_path):
        spec = {"detector": "direct", "solver": "greedy",
                "n_communities": 3, "seed": 7}
        files = {
            "graph": graph_file,
            "malformed": tmp_path / "malformed.txt",
            "ok": tmp_path / "spec.json",
            "bad": tmp_path / "bad.json",
            "unknown": tmp_path / "unknown.json",
            "events": tmp_path / "events.jsonl",
            "missing": tmp_path / "missing",
        }
        files["malformed"].write_text("0 1\n2\n", encoding="utf-8")
        files["ok"].write_text(json.dumps(spec), encoding="utf-8")
        files["bad"].write_text("{not json", encoding="utf-8")
        files["unknown"].write_text(
            json.dumps({**spec, "bogus": 1}), encoding="utf-8"
        )
        files["events"].write_text(
            json.dumps({"op": "insert", "u": 0, "v": 9}) + "\n",
            encoding="utf-8",
        )
        return {name: str(path) for name, path in files.items()}

    @staticmethod
    def _one_line_exit(argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        message = excinfo.value.code
        # A string code exits with status 1 after printing it to stderr.
        assert isinstance(message, str) and message
        assert "\n" not in message
        assert capsys.readouterr().err == ""
        return message

    @pytest.mark.parametrize(
        "argv, expected",
        [
            ("--input {missing} --communities 3", "No such file"),
            ("--input {malformed} --communities 3", "two columns"),
            ("--input {graph} --spec {missing}", "No such file"),
            ("--input {graph} --spec {bad}", "invalid spec"),
            ("--input {graph} --spec {unknown}", "unknown spec keys"),
            ("--input {graph} --communities 0", "n_communities"),
            ("--input {graph} --communities 3 --seed -1", "seed"),
            ("--input {graph} --spec {ok} --communities 0", "n_communities"),
            ("--input {graph} --spec {ok} --seed -1", "seed"),
        ],
        ids=[
            "missing-input",
            "malformed-input",
            "missing-spec",
            "non-json-spec",
            "unknown-spec-key",
            "communities-0",
            "seed-negative",
            "spec-communities-0",
            "spec-seed-negative",
        ],
    )
    def test_detect(self, paths, capsys, argv, expected):
        argv = ["detect"] + argv.format(**paths).split()
        assert expected in self._one_line_exit(argv, capsys)

    @pytest.mark.parametrize(
        "argv, expected",
        [
            ("--input {missing} --spec {ok} --updates {events}",
             "No such file"),
            ("--input {graph} --spec {missing} --updates {events}",
             "No such file"),
            ("--input {graph} --spec {bad} --updates {events}",
             "invalid spec"),
            ("--input {graph} --spec {unknown} --updates {events}",
             "unknown spec keys"),
            ("--input {graph} --spec {ok} --updates {missing}",
             "No such file"),
            ("--input {graph} --spec {ok} --updates {events} "
             "--communities 0", "n_communities"),
            ("--input {graph} --spec {ok} --updates {events} --seed -1",
             "seed"),
        ],
        ids=[
            "missing-input",
            "missing-spec",
            "non-json-spec",
            "unknown-spec-key",
            "missing-updates",
            "communities-0",
            "seed-negative",
        ],
    )
    def test_stream(self, paths, capsys, argv, expected):
        argv = ["stream"] + argv.format(**paths).split()
        assert expected in self._one_line_exit(argv, capsys)

    @pytest.mark.parametrize(
        "event, expected",
        [
            ({"op": "bogus", "u": 0, "v": 1},
             "batch 1: unknown edge-event op 'bogus'; known ops:"),
            ({"op": "insert", "u": 0, "v": 15},
             "batch 1: edge event (0, 15) references a node outside 0..14"),
            ({"op": "insert", "u": 0, "v": 1.5},
             "batch 1: edge event {'op': 'insert', 'u': 0, 'v': 1.5} has "
             "a non-integer endpoint 1.5"),
        ],
        ids=["unknown-op", "node-out-of-range", "fractional-endpoint"],
    )
    def test_stream_bad_event(self, paths, tmp_path, capsys, event, expected):
        """The bad batch ends the run in one line; earlier ones printed."""
        updates = tmp_path / "bad-events.jsonl"
        updates.write_text(
            json.dumps({"op": "insert", "u": 0, "v": 9}) + "\n"
            + json.dumps(event) + "\n",
            encoding="utf-8",
        )
        argv = [
            "stream", "--input", paths["graph"], "--spec", paths["ok"],
            "--updates", str(updates),
        ]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        message = excinfo.value.code
        assert isinstance(message, str) and "\n" not in message
        assert message.startswith(expected)
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[-1].startswith("batch 0: modularity")


class TestBenchCommand:
    def test_unknown_experiment_exits(self):
        with pytest.raises(SystemExit, match="unknown experiment"):
            main(["bench", "--experiment", "fig99"])

    def test_bench_table1_tiny(self, capsys):
        code = main(
            ["bench", "--experiment", "table1", "--scale", "0.4"]
        )
        assert code == 0
        assert "Table I" in capsys.readouterr().out
