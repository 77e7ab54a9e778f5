"""End-to-end lifecycle of the service tier (``ReproServer``).

Tier-1 contracts from the service issue: seeded ``POST /detect``
responses byte-identical to direct :func:`repro.api.detect` artifacts
(modulo wall-clock timings), bounded-queue backpressure (429 +
``Retry-After``, both deterministically and under a real burst),
per-request ``time_limit`` SLAs surfacing ``status="time_limit"``,
the full HTTP error mapping, a killed worker answered with 503 and then
recovered from, and a SIGTERM drain that leaves no worker processes or
``/dev/shm`` segments behind.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import os
import re
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

import repro.api as api
from repro.api import threads
from repro.graphs.generators import ring_of_cliques
from repro.server import ReproServer

QHD_SPEC = {
    "detector": "qhd",
    "solver": "qhd",
    "solver_config": {"n_samples": 4, "grid_points": 8, "n_steps": 15},
    "n_communities": 3,
    "seed": 7,
}

HAS_DEV_SHM = os.path.isdir("/dev/shm")


def _shm_entries() -> set:
    return set(os.listdir("/dev/shm")) if HAS_DEV_SHM else set()


def _graph_payload(graph) -> dict:
    return {
        "n_nodes": graph.n_nodes,
        "edges": [
            [int(u), int(v), float(w)] for u, v, w in graph.edges()
        ],
    }


def _request(url: str, body: dict | None = None, timeout: float = 60.0):
    """POST ``body`` (or GET when ``None``); return (status, json, headers)."""
    data = None if body is None else json.dumps(body).encode("utf-8")
    request = urllib.request.Request(url, data=data)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return (
                response.status,
                json.loads(response.read()),
                dict(response.headers),
            )
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), dict(error.headers)


def _raw_post(server, length: str, body: bytes) -> tuple[int, dict]:
    """POST ``body`` under a hand-written ``Content-Length``.

    The client half-closes after the body and reads until the server
    closes, so the handler (and its slot release) has finished.
    """
    with socket.create_connection(
        (server.host, server.port), timeout=30
    ) as sock:
        sock.sendall(
            b"POST /detect HTTP/1.0\r\nContent-Length: "
            + length.encode()
            + b"\r\n\r\n"
            + body
        )
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    head, _, payload = b"".join(chunks).partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(payload)


def _reset(sock: socket.socket) -> None:
    """Close ``sock`` with a TCP reset (``SO_LINGER`` 0), not a FIN."""
    sock.setsockopt(
        socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
    )
    sock.close()


def _wait_until(condition, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


@contextlib.contextmanager
def _serving(**kwargs):
    """A ``ReproServer`` on an ephemeral port, drained on exit."""
    server = ReproServer(port=0, **kwargs)
    thread = threading.Thread(
        target=server.serve_forever, name="serve-under-test"
    )
    thread.start()
    try:
        yield server
    finally:
        server.request_shutdown()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert server.session.closed


def _scrub_timings(payload):
    """Drop wall-clock fields so artifacts compare bit-for-bit."""
    if isinstance(payload, dict):
        return {
            key: _scrub_timings(value)
            for key, value in payload.items()
            if key not in ("timings", "wall_time")
        }
    if isinstance(payload, list):
        return [_scrub_timings(entry) for entry in payload]
    return payload


class TestEndpoints:
    def test_healthz_and_stats(self):
        with _serving(max_queue=2, executor="thread") as server:
            status, body, _ = _request(server.url + "/healthz")
            assert (status, body) == (200, {"status": "ok"})
            status, stats, _ = _request(server.url + "/stats")
            assert status == 200
            assert stats["server"]["max_queue"] == 2
            assert stats["server"]["queue_depth"] == 0
            assert stats["session"]["runs"] == 0
            assert stats["session"]["worker_restarts"] == 0
            assert stats["session"]["wire"]["mode"] == "pickle"
            assert stats["session"]["blas_threads"] == threads.blas_threads()

    def test_detect_byte_identical_to_direct_run(self):
        graph, _ = ring_of_cliques(3, 5)
        expected = json.loads(api.detect(graph, QHD_SPEC).to_json())
        with _serving(max_queue=4, executor="thread") as server:
            responses = [
                _request(
                    server.url + "/detect",
                    {"graph": _graph_payload(graph), "spec": QHD_SPEC},
                )
                for _ in range(3)
            ]
            stats = server.stats()["server"]
        assert stats["served"] == 3
        for status, body, _ in responses:
            assert status == 200
            assert _scrub_timings(body) == _scrub_timings(expected)

    def test_solve_round_trip(self):
        body = {
            "qubo": {
                "quadratic": [[0.0, 2.0], [0.0, 0.0]],
                "linear": [-1.0, -1.0],
            },
            "spec": {"solver": "greedy", "seed": 0},
        }
        with _serving(max_queue=2, executor="thread") as server:
            status, payload, _ = _request(server.url + "/solve", body)
        assert status == 200
        assert payload["result"]["energy"] == -1.0

    def test_time_limit_sla_surfaces_status(self):
        n = 100
        quadratic = [
            [float((i * j) % 7 - 3) for j in range(n)] for i in range(n)
        ]
        body = {
            "qubo": {"quadratic": quadratic},
            "spec": {
                "solver": "simulated-annealing",
                "solver_config": {"n_sweeps": 5_000_000},
                "seed": 0,
            },
            "time_limit": 0.1,
        }
        with _serving(max_queue=2, executor="thread") as server:
            status, payload, _ = _request(server.url + "/solve", body)
            stats = server.stats()["server"]
        assert status == 200
        assert payload["result"]["status"] == "time_limit"
        assert payload["spec"]["solver_config"]["time_limit"] == 0.1
        assert stats["timed_out"] == 1
        assert stats["served"] == 1


class TestErrorMapping:
    def test_unknown_path_404_and_wrong_method_405(self):
        with _serving(max_queue=2, executor="thread") as server:
            assert _request(server.url + "/nope")[0] == 404
            status, _, headers = _request(
                server.url + "/detect"
            )  # GET on a POST route
            assert status == 405
            assert headers.get("Allow") == "POST"
            assert _request(server.url + "/healthz", {})[0] == 405

    def test_bad_json_400_and_bad_payload_422(self):
        with _serving(max_queue=2, executor="thread") as server:
            request = urllib.request.Request(
                server.url + "/detect", data=b"{not json"
            )
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(request, timeout=30)
            assert err.value.code == 400
            status, body, _ = _request(
                server.url + "/detect",
                {"graph": {"n_nodes": 2}, "spec": {}},
            )
            assert status == 422
            assert "edges" in body["error"]
            # Well-formed wire, invalid spec semantics (unknown solver)
            status, body, _ = _request(
                server.url + "/solve",
                {
                    "qubo": {"quadratic": [[0.0]]},
                    "spec": {"solver": "no-such-solver", "seed": 0},
                },
            )
            assert status == 422
            assert server.stats()["server"]["errors"] == 3

    @pytest.mark.parametrize(
        "spec",
        [
            {"n_communities": 0},
            {"n_communities": -2},
            {"n_communities": 2.5},
            {"n_communities": "3"},
            {"seed": "x"},
            {"seed": -1},
            {"seed": 1.5},
            {"seed": True},
            {"solver_config": {"n_restarts": 0}},
            {"solver_config": {"n_restarts": 1.5}},
            {"solver": "qhd", "solver_config": {"n_steps": -3}},
        ],
        ids=[
            "communities-0",
            "communities-negative",
            "communities-float",
            "communities-string",
            "seed-string",
            "seed-negative",
            "seed-float",
            "seed-bool",
            "restarts-0",
            "restarts-float",
            "qhd-steps-negative",
        ],
    )
    def test_malformed_spec_values_422(self, spec):
        graph, _ = ring_of_cliques(3, 4)
        body = {
            "graph": _graph_payload(graph),
            "spec": {
                "solver": "greedy",
                "n_communities": 3,
                "seed": 0,
                **spec,
            },
        }
        with _serving(max_queue=2, executor="thread") as server:
            status, payload, _ = _request(server.url + "/detect", body)
            stats = server.stats()["server"]
        assert status == 422, payload
        assert stats["errors"] == 1
        assert stats["served"] == 0

    def test_fractional_node_id_422(self):
        """An edge ``[0, 1.5]`` is an invalid graph, not edge ``(0, 1)``."""
        body = {
            "graph": {"n_nodes": 3, "edges": [[0, 1.5], [1, 2]]},
            "spec": {"solver": "greedy", "n_communities": 2, "seed": 0},
        }
        with _serving(max_queue=2, executor="thread") as server:
            status, payload, _ = _request(server.url + "/detect", body)
            stats = server.stats()["server"]
        assert status == 422, payload
        assert "non-integer node id" in payload["error"]
        assert stats["errors"] == 1
        assert stats["served"] == 0

    @pytest.mark.parametrize(
        "edges",
        [[["0", "1"], [1, 2]], [[True, 2], [1, 2]], [[0, 1, "2.5"]]],
        ids=["string-id", "bool-id", "string-weight"],
    )
    def test_bool_or_string_edge_entry_422(self, edges):
        """JSON ``"0"`` or ``true`` is not coerced to a node or weight."""
        body = {
            "graph": {"n_nodes": 3, "edges": edges},
            "spec": {"solver": "greedy", "n_communities": 2, "seed": 0},
        }
        with _serving(max_queue=2, executor="thread") as server:
            status, payload, _ = _request(server.url + "/detect", body)
            stats = server.stats()["server"]
        assert status == 422, payload
        assert stats["errors"] == 1
        assert stats["served"] == 0

    def test_missing_length_411_and_oversized_413(self):
        with _serving(
            max_queue=2, executor="thread", max_body_bytes=64
        ) as server:
            connection = http.client.HTTPConnection(
                server.host, server.port, timeout=30
            )
            try:
                connection.putrequest("POST", "/detect")
                connection.endheaders()
                assert connection.getresponse().status == 411
            finally:
                connection.close()
            # An honest Content-Length over the cap is refused before
            # the body is read — no giant buffer ever materialises.
            connection = http.client.HTTPConnection(
                server.host, server.port, timeout=30
            )
            try:
                connection.putrequest("POST", "/detect")
                connection.putheader("Content-Length", str(10**9))
                connection.endheaders()
                assert connection.getresponse().status == 413
            finally:
                connection.close()

    @pytest.mark.parametrize(
        "length, body, message",
        [
            # A body past the 64-byte cap: -1 must not read it to EOF.
            (
                "-1",
                json.dumps(
                    {
                        "graph": {"n_nodes": 3, "edges": [[0, 1], [1, 2]]},
                        "spec": {"solver": "greedy", "n_communities": 2},
                    }
                ).encode(),
                "invalid Content-Length '-1'",
            ),
            ("-5", b"{}", "invalid Content-Length '-5'"),
            ("50", b"{}", "truncated request body: got 2 of 50 bytes"),
        ],
        ids=["negative-past-cap", "negative", "truncated"],
    )
    def test_negative_or_unmet_length_400(self, length, body, message):
        with _serving(
            max_queue=2, executor="thread", max_body_bytes=64
        ) as server:
            status, payload = _raw_post(server, length, body)
            stats = server.stats()["server"]
        assert status == 400
        assert payload["error"] == message
        assert stats["errors"] == 1
        assert stats["queue_depth"] == 0
        assert stats["served"] == 0

    @pytest.mark.parametrize("stage", ["body", "reply"])
    def test_client_reset_is_counted_not_printed(self, stage, capfd):
        """A client that resets mid-body or before the reply is tallied.

        ``body``: the headers promise 100 bytes, one arrives, then the
        reset.  ``reply``: the whole request arrives, and the client
        resets while the job runs; the job is sized in sweeps so it is
        still running when the reset lands.
        """
        graph, _ = ring_of_cliques(3, 4)
        request = {
            "graph": _graph_payload(graph),
            "spec": {
                "solver": "simulated-annealing",
                "solver_config": {"n_sweeps": 5_000, "n_restarts": 1},
                "n_communities": 3,
                "seed": 0,
            },
        }
        if stage == "body":
            head, body = b"Content-Length: 100\r\n\r\n", b"{"
        else:
            body = json.dumps(request).encode()
            head = f"Content-Length: {len(body)}\r\n\r\n".encode()
        with _serving(max_queue=2, executor="thread") as server:
            sock = socket.create_connection(
                (server.host, server.port), timeout=30
            )
            sock.sendall(b"POST /detect HTTP/1.0\r\n" + head + body)
            _wait_until(lambda: server.stats()["server"]["queue_depth"])
            _reset(sock)
            _wait_until(
                lambda: server.stats()["server"]["disconnected"]
                and not server.stats()["server"]["queue_depth"]
            )
            stats = server.stats()["server"]
        assert stats["disconnected"] == 1
        assert stats["queue_depth"] == 0
        assert stats["errors"] == 0
        # The reply case ran its job: the reset met the reply write.
        assert stats["served"] == (stage == "reply")
        assert "Traceback" not in capfd.readouterr().err

    @pytest.mark.parametrize("timeout", [0, -1.0, float("nan"), float("inf")])
    def test_read_timeout_must_be_positive_and_finite(self, timeout):
        with pytest.raises(api.SessionError, match="read_timeout"):
            ReproServer(port=0, read_timeout=timeout, executor="thread")

    def test_stalled_body_times_out_with_408(self, capfd):
        """A client that stalls mid-body loses its slot, not the queue.

        With one admission slot, the stalled client holds it until the
        read timeout answers 408; the next well-formed request is then
        served instead of shed.
        """
        graph, _ = ring_of_cliques(3, 4)
        body = {
            "graph": _graph_payload(graph),
            "spec": {"solver": "greedy", "n_communities": 3, "seed": 0},
        }
        with _serving(
            max_queue=1, executor="thread", read_timeout=0.2
        ) as server:
            with socket.create_connection(
                (server.host, server.port), timeout=30
            ) as sock:
                sock.sendall(
                    b"POST /detect HTTP/1.0\r\nContent-Length: 100\r\n\r\n"
                )
                chunks = []
                while chunk := sock.recv(65536):
                    chunks.append(chunk)
            head, _, payload = b"".join(chunks).partition(b"\r\n\r\n")
            status = _request(server.url + "/detect", body)[0]
            stats = server.stats()["server"]
        assert int(head.split()[1]) == 408
        assert "0.2 s read timeout" in json.loads(payload)["error"]
        assert status == 200
        assert stats["errors"] == 1
        assert stats["queue_depth"] == 0
        assert stats["shed"] == 0
        assert "Traceback" not in capfd.readouterr().err

    def test_draining_returns_503(self):
        graph, _ = ring_of_cliques(3, 4)
        body = {"graph": _graph_payload(graph), "spec": QHD_SPEC}
        with _serving(max_queue=2, executor="thread") as server:
            server._draining = True
            try:
                status, payload, headers = _request(
                    server.url + "/detect", body
                )
                assert status == 503
                assert headers.get("Retry-After") == "1"
                health = _request(server.url + "/healthz")[1]
                assert health == {"status": "draining"}
            finally:
                server._draining = False


class TestBackpressure:
    def test_queue_full_sheds_with_429(self):
        graph, _ = ring_of_cliques(3, 4)
        body = {"graph": _graph_payload(graph), "spec": QHD_SPEC}
        with _serving(max_queue=2, executor="thread") as server:
            # Deterministically exhaust the admission slots.
            assert server._slots.acquire(blocking=False)
            assert server._slots.acquire(blocking=False)
            try:
                status, payload, headers = _request(
                    server.url + "/detect", body
                )
            finally:
                server._slots.release()
                server._slots.release()
            assert status == 429
            assert headers.get("Retry-After") == "1"
            assert "queue is full" in payload["error"]
            assert server.stats()["server"]["shed"] == 1
            # Slots freed: the same request is served again.
            assert _request(server.url + "/detect", body)[0] == 200

    def test_burst_beyond_bound_sheds_but_serves_the_rest(self):
        n = 80
        quadratic = [
            [float((i + j) % 5 - 2) for j in range(n)] for i in range(n)
        ]
        slow_body = {
            "qubo": {"quadratic": quadratic},
            "spec": {
                "solver": "simulated-annealing",
                "solver_config": {"n_sweeps": 5_000_000},
                "seed": 0,
            },
            "time_limit": 1.0,
        }
        results = []
        with _serving(
            max_queue=1, executor="thread", max_workers=1
        ) as server:
            threads = [
                threading.Thread(
                    target=lambda: results.append(
                        _request(server.url + "/solve", slow_body)
                    )
                )
                for _ in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            stats = server.stats()["server"]
        statuses = sorted(status for status, _, _ in results)
        assert len(statuses) == 4
        assert statuses[0] == 200  # someone got served
        assert statuses[-1] == 429  # and someone was shed
        assert stats["served"] + stats["shed"] == 4
        assert stats["served"] >= 1 and stats["shed"] >= 1


class TestWorkerDeath:
    def test_killed_worker_answers_503_then_recovers(self):
        graph, _ = ring_of_cliques(3, 4)
        body = {"graph": _graph_payload(graph), "spec": QHD_SPEC}
        with _serving(
            max_queue=2, executor="process", max_workers=2
        ) as server:
            status, _, _ = _request(server.url + "/detect", body)
            assert status == 200
            pool = server.session._process_executor
            os.kill(next(iter(pool._processes)), signal.SIGKILL)
            deadline = time.monotonic() + 30
            while not pool._broken and time.monotonic() < deadline:
                time.sleep(0.01)
            status, payload, headers = _request(
                server.url + "/detect", body
            )
            assert status == 503, payload
            assert headers["Retry-After"] == "1"
            status, payload, _ = _request(server.url + "/detect", body)
            assert status == 200, payload
            status, stats, _ = _request(server.url + "/stats")
            assert status == 200
            assert stats["session"]["worker_restarts"] == 1


class TestSigtermDrain:
    def test_sigterm_exits_cleanly_with_no_leaks(self):
        """``repro serve`` + SIGTERM: rc 0, no workers, /dev/shm as before."""
        graph, _ = ring_of_cliques(3, 4)
        body = {"graph": _graph_payload(graph), "spec": QHD_SPEC}
        before = _shm_entries()
        src = os.path.abspath(
            os.path.join(os.path.dirname(__file__), "..", "..", "src")
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--port",
                "0",
                "--max-queue",
                "2",
                "--executor",
                "process",
                "--max-workers",
                "2",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            start_new_session=True,
        )
        try:
            banner = process.stdout.readline()
            match = re.search(r"http://[\d.]+:(\d+)", banner)
            assert match, banner
            url = f"http://127.0.0.1:{match.group(1)}"
            status, payload, _ = _request(url + "/detect", body)
            assert status == 200
            expected = api.detect(graph, QHD_SPEC)
            assert payload["result"]["labels"] == [
                int(label) for label in expected.result.labels
            ]
            process.send_signal(signal.SIGTERM)
            output, _ = process.communicate(timeout=120)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate(timeout=30)
        assert process.returncode == 0, output
        assert "drained: 1 served" in output, output
        # The whole process group is gone: the session's worker
        # processes were reaped by the drain, not orphaned.
        with pytest.raises(ProcessLookupError):
            os.killpg(process.pid, 0)
        if HAS_DEV_SHM:
            assert _shm_entries() == before
