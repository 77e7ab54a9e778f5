"""Workload runtimes: what each workload process does to the program.

Every runtime sets the program up (:meth:`Runtime.start`, timed as
set-up), runs ops for a fixed time (:meth:`Runtime.run`), checks every
output (:meth:`Runtime.check`) and, in a traced run, turns the spans it
collected into per-layer metrics (:meth:`Runtime.layers`).
"""

from __future__ import annotations

import hashlib
import http.client
import itertools
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

import spans as span_lib
from repro.api import Session
from repro.community.modularity import modularity
from repro.graphs import Graph

CLOCK = span_lib.CLOCK

#: Span names reported as inclusive milliseconds per op.
SPAN_METRICS = (
    "graphs.coarsen",
    "graphs.apply_updates",
    "qubo.build",
    "qubo.patch",
    "qubo.repatch",
    "qubo.decode",
    "qhd.solve",
    "qhd.evolve",
    "qhd.measure",
    "qhd.polish",
    "solvers.greedy",
    "community.polish",
    "community.uncoarsen",
    "community.modularity",
    "api.build",
    "server.parse",
    "server.encode",
)

#: Concurrent HTTP clients of ``serve_detect`` (closed loop).
SERVE_CLIENTS = 2

#: ``repro serve`` flags: its defaults but for the executor.  ``auto``
#: resolves to process workers on a small machine, and with BLAS
#: threading as shipped those swing up to 4x between runs (README.md,
#: "Thread policy").
SERVE_ARGS = ["--port", "0", "--executor", "thread"]

#: Event batches per stream (after the first) whose modularity
#: ``stream_updates`` reports, however many the timed window reached.
QUALITY_BATCHES = 4


def digest(labels: Any) -> str:
    """Short hash of a partition, for determinism checks."""
    data = np.asarray(labels, dtype=np.int64).tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


def partition_problem(
    graph: Graph, labels: np.ndarray, reported: float, k: int
) -> str | None:
    """Why ``labels`` is not a valid reported result, or ``None``."""
    if labels.shape != (graph.n_nodes,):
        return f"{labels.shape[0]} labels for {graph.n_nodes} nodes"
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        return f"labels outside 0..{k - 1}"
    recomputed = modularity(graph, labels)
    if recomputed != reported:
        return f"reported modularity {reported!r} != {recomputed!r}"
    return None


@dataclass
class Output:
    """What one op returned, kept for the checks after the timed loop."""

    key: int
    graph: Graph | None
    labels: np.ndarray
    modularity: float
    metadata: dict
    total_s: float
    iterations: int
    solver: str | None

    @classmethod
    def from_dict(cls, key: int, graph: Graph | None, d: dict) -> "Output":
        result = d["result"]
        solve = result.get("solve_result") or {}
        return cls(
            key=key,
            graph=graph,
            labels=np.asarray(result["labels"], dtype=np.int64),
            modularity=float(result["modularity"]),
            metadata=dict(result.get("metadata") or {}),
            total_s=float(d["timings"]["total"]),
            iterations=int(solve.get("iterations", 0)),
            solver=solve.get("solver_name"),
        )

    @classmethod
    def from_artifact(cls, key: int, graph: Graph | None, art: Any) -> "Output":
        result = art.result
        solve = result.solve_result
        return cls(
            key=key,
            graph=graph,
            labels=np.asarray(result.labels, dtype=np.int64),
            modularity=float(result.modularity),
            metadata=dict(result.metadata),
            total_s=float(art.timings["total"]),
            iterations=int(solve.iterations) if solve is not None else 0,
            solver=solve.solver_name if solve is not None else None,
        )


class Runtime:
    """Shared loop, checks and layer arithmetic of the workloads."""

    #: Whether importing ``repro`` in this process is program set-up
    #: (not for ``serve_detect``, whose program is the server child).
    imports_program = True

    def __init__(self, inputs: dict, tracer: span_lib.Tracer | None) -> None:
        self.spec = inputs["spec"]
        self.k = int(self.spec["n_communities"])
        self.tracer = tracer
        self.warmup_digest: str | None = None
        self.outputs: list[Output] = []
        self.failures: list[str] = []
        self.run_failures: list[str] = []
        self.digests: dict[str, str] = {}
        self.latencies: list[float] = []
        self.ops = 0
        self.window = (0.0, 0.0)
        self.stats: dict = {}
        #: Inputs whose modularity is reported: a fixed set, so that
        #: ``modularity_mean`` does not move with throughput.
        self.quality_keys: set[int] = set()

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def prime(self) -> None:
        """Untimed preparation between set-up and the timed window."""

    def complete(self) -> None:
        """Run, untimed, the quality inputs the timed window missed."""
        raise NotImplementedError

    def session_stats(self) -> dict:
        raise NotImplementedError

    def op(self, i: int) -> int:
        """Run op ``i``; return how many ops (graphs) it covered."""
        raise NotImplementedError

    def run(self, seconds: float) -> dict:
        """Run ops back to back for ``seconds``; the base is sequential."""
        attempted = 0
        start = CLOCK()
        deadline = start + seconds
        for i in itertools.count():
            if self.tracer is not None:
                self.tracer.set_op(i)
            began = CLOCK()
            try:
                size = self.op(i)
            except StopIteration:
                break
            except Exception as error:  # noqa: BLE001 - a failed op
                attempted += 1
                self.failures.append(
                    f"op {i}: {type(error).__name__}: {error}"
                )
            else:
                attempted += size
                self.ops += size
                self.latencies.append(CLOCK() - began)
            if CLOCK() >= deadline:
                break
        self.window = (start, CLOCK())
        return self._samples(attempted)

    def _samples(self, attempted: int) -> dict:
        return {
            "attempted": attempted,
            "ops": self.ops,
            "wall_s": self.window[1] - self.window[0],
            "latencies_ms": [1000.0 * s for s in self.latencies],
        }

    def modularity_mean(self) -> float:
        """Mean modularity over :attr:`quality_keys`, once per input."""
        by_key = {
            o.key: o.modularity
            for o in self.outputs
            if o.key in self.quality_keys
        }
        return statistics.fmean(by_key.values()) if by_key else 0.0

    # -- checks ---------------------------------------------------------
    def check(self) -> None:
        """Validate every output and its determinism per input."""
        for out in self.outputs:
            problem = partition_problem(
                out.graph, out.labels, out.modularity, self.k
            )
            key, hashed = str(out.key), digest(out.labels)
            if problem is None and (
                self.digests.setdefault(key, hashed) != hashed
            ):
                problem = "labels differ from an earlier run of this input"
            if problem is not None:
                self.failures.append(f"input {key}: {problem}")

    def counters(self) -> dict:
        self.stats = self.session_stats()
        return self.stats

    def resolved(self) -> dict:
        """Executor, width and wire the program resolved (after counters)."""
        return {
            "executor": self.stats["executor"],
            "max_workers": self.stats["max_workers"],
            "wire": self.stats["wire"]["mode"],
        }

    # -- per-layer metrics ----------------------------------------------
    def op_wall_s(self) -> float:
        """Wall budget of one op for the layer table."""
        return sum(self.latencies) / max(1, self.ops)

    def extra_layers(self) -> dict[str, float]:
        return {}

    def layers(self, spans: list) -> dict[str, float]:
        lo, hi = self.window
        window = [s for s in spans if s[3] >= lo and s[4] <= hi]
        ops = max(1, self.ops)
        totals = span_lib.totals_by_name(window)
        metrics = {
            f"{name}_ms": 1000.0 * totals.get(name, 0.0) / ops
            for name in SPAN_METRICS
        }
        table = span_lib.layer_table(window, ops, self.op_wall_s())
        metrics.update({f"self.{k}_ms": v for k, v in table.items()})
        metrics["self.op_wall_ms"] = 1000.0 * self.op_wall_s()
        me = os.getpid()
        metrics["trace.remote_spans"] = float(
            sum(1 for s in window if s[6] != me)
        )
        outs = self.outputs

        def mean(values: Any) -> float:
            values = list(values)
            return statistics.fmean(values) if values else 0.0

        metrics["graphs.levels"] = mean(
            o.metadata.get("levels", 0) for o in outs
        )
        metrics["qubo.variables"] = mean(
            o.metadata.get(
                "n_variables",
                o.metadata.get("coarsest_nodes", 0) * self.k,
            )
            for o in outs
        )
        metrics["qhd.steps"] = mean(
            o.iterations if o.solver == "qhd" else 0 for o in outs
        )
        metrics["community.refine_moves"] = mean(
            o.metadata.get("refinement_moves", 0) for o in outs
        )
        metrics["community.warm_win_ratio"] = mean(
            float(o.metadata["warm_selected"])
            for o in outs
            if "warm_selected" in o.metadata
        )
        pool = self.stats.get("engine_pool") or {}
        leases = pool.get("hits", 0) + pool.get("misses", 0)
        metrics["qhd.pool_hit_ratio"] = (
            pool.get("hits", 0) / leases if leases else 0.0
        )
        metrics["qhd.engine_setup_ms"] = (
            1000.0 * pool.get("setup_seconds", 0.0) / ops
        )
        metrics["api.wire_bytes_per_op"] = (
            self.stats.get("wire", {}).get("bytes_shipped", 0) / ops
        )
        for name in (
            "api.fanout_efficiency",
            "api.stream_overhead_ms",
            "server.overhead_ms",
            "server.shed",
        ):
            metrics[name] = 0.0
        metrics.update(self.extra_layers())
        return metrics


class _SessionRuntime(Runtime):
    session: Session

    def session_stats(self) -> dict:
        return self.session.stats()

    def close(self) -> None:
        session = getattr(self, "session", None)
        if session is not None:
            session.close()


class MultilevelBatch(_SessionRuntime):
    """``Session(executor="thread").detect_batch`` over distinct graphs.

    ``auto`` resolves to process workers on a small machine, and with
    BLAS threading as shipped those swing up to 4x between runs
    (README.md, "Thread policy"), so this workload fans out over threads.
    """

    def __init__(self, inputs: dict, tracer: span_lib.Tracer | None) -> None:
        super().__init__(inputs, tracer)
        self.graphs = [Graph.from_arrays(*a) for a in inputs["graphs"]]
        self.batch = int(inputs["batch"])
        self.warmup = [Graph.from_arrays(*a) for a in inputs["warmup"]]
        self.quality_keys = set(range(len(self.graphs)))

    def start(self) -> None:
        self.session = Session(executor="thread")
        artifacts = self.session.detect_batch(self.warmup, self.spec)
        self.warmup_digest = digest(
            np.concatenate([a.result.labels for a in artifacts])
        )

    def op(self, i: int) -> int:
        first = (i * self.batch) % len(self.graphs)
        indices = range(first, first + self.batch)
        artifacts = self.session.detect_batch(
            [self.graphs[x] for x in indices], self.spec
        )
        for index, artifact in zip(indices, artifacts):
            self.outputs.append(
                Output.from_artifact(index, self.graphs[index], artifact)
            )
        return self.batch

    def complete(self) -> None:
        missing = sorted(self.quality_keys - {o.key for o in self.outputs})
        if missing:
            artifacts = self.session.detect_batch(
                [self.graphs[x] for x in missing], self.spec
            )
            self.outputs.extend(
                Output.from_artifact(x, self.graphs[x], artifact)
                for x, artifact in zip(missing, artifacts)
            )

    def width(self) -> int:
        return min(self.session.max_workers, self.batch)

    def check(self) -> None:
        super().check()
        if not self.outputs:
            return
        # Batch == single run: the first batch's first graph, re-run
        # in-process through Session.detect, must come back identical.
        first = self.outputs[0]
        single = Output.from_artifact(
            first.key,
            first.graph,
            self.session.detect(first.graph, self.spec),
        )
        if not (
            np.array_equal(single.labels, first.labels)
            and single.modularity == first.modularity
            and single.metadata == first.metadata
            and single.iterations == first.iterations
        ):
            self.run_failures.append(
                f"batch artifact of input {first.key} differs from "
                "Session.detect of the same graph"
            )

    def op_wall_s(self) -> float:
        # Each latency is one batch's wall; every worker slot of it is
        # budget, so idle workers show up as ``other``.
        return sum(self.latencies) * self.width() / max(1, self.ops)

    def extra_layers(self) -> dict[str, float]:
        # Timed ops only: completion outputs follow them.
        busy = sum(o.total_s for o in self.outputs[: self.ops])
        return {
            "api.fanout_efficiency": busy
            / max(1e-12, sum(self.latencies) * self.width())
        }


class StreamUpdates(_SessionRuntime):
    """Round-robin ``Session.detect_stream`` batches over several streams.

    Each stream is its own graph with its own seeded event batches;
    an op is one event batch of one stream.  Output keys are
    ``stream * STREAM_KEY + batch``.  Set-up opens every stream and
    serves the first one's first batch, which pays its one full QUBO
    build; the other streams' first batches run untimed after set-up.
    """

    STREAM_KEY = 100_000

    def __init__(self, inputs: dict, tracer: span_lib.Tracer | None) -> None:
        super().__init__(inputs, tracer)
        self.graphs = [Graph.from_arrays(*a) for a in inputs["graphs"]]
        self.batches = inputs["batches"]
        self.streams: list[Any] = []
        self.next_batch = [0] * len(self.graphs)
        self.quality_keys = {
            which * self.STREAM_KEY + batch
            for which in range(len(self.graphs))
            for batch in range(1, QUALITY_BATCHES + 1)
        }

    def _advance(self, which: int) -> None:
        """Serve the next event batch of stream ``which``."""
        artifact = next(self.streams[which])
        batch = self.next_batch[which]
        self.next_batch[which] += 1
        self.outputs.append(
            Output.from_artifact(
                which * self.STREAM_KEY + batch, None, artifact
            )
        )

    def start(self) -> None:
        self.session = Session()
        self.streams = [
            self.session.detect_stream(graph, iter(batches), self.spec)
            for graph, batches in zip(self.graphs, self.batches)
        ]
        self._advance(0)
        self.warmup_digest = digest(self.outputs[0].labels)

    def prime(self) -> None:
        for which in range(1, len(self.streams)):
            self._advance(which)

    def op(self, i: int) -> int:
        self._advance(i % len(self.streams))
        return 1

    def complete(self) -> None:
        for which in range(len(self.streams)):
            while self.next_batch[which] <= QUALITY_BATCHES:
                self._advance(which)

    def check(self) -> None:
        # Replay the events to get each batch's graph (outside timing).
        by_key = {o.key: o for o in self.outputs}
        for which, graph in enumerate(self.graphs):
            for index in range(self.next_batch[which]):
                graph, _ = graph.apply_updates(self.batches[which][index])
                key = which * self.STREAM_KEY + index
                if key in by_key:
                    by_key[key].graph = graph
        super().check()

    def extra_layers(self) -> dict[str, float]:
        # Outputs run in order: first batches, timed ops, completion.
        timed = self.outputs[len(self.streams):][: len(self.latencies)]
        if not timed:
            return {}
        return {
            "api.stream_overhead_ms": 1000.0 * (
                statistics.fmean(self.latencies)
                - statistics.fmean(o.total_s for o in timed)
            )
        }

    def close(self) -> None:
        for stream in self.streams:
            stream.close()
        super().close()


class ServeDetect(Runtime):
    """A closed loop of HTTP clients against ``repro serve``."""

    imports_program = False

    def __init__(self, inputs: dict, tracer: span_lib.Tracer | None) -> None:
        super().__init__(inputs, tracer)
        self.graphs = [Graph.from_arrays(*a) for a in inputs["graphs"]]
        self.bodies = inputs["bodies"]
        self.warmup_bodies = inputs["warmup_bodies"]
        self.proc: subprocess.Popen | None = None
        self.address = ("127.0.0.1", 0)
        self.round_trips: list[float] = []
        self.quality_keys = set(range(len(self.bodies)))

    def _request(
        self, method: str, path: str, body: bytes | None = None
    ) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection(*self.address, timeout=60)
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def start(self) -> None:
        if self.tracer is None:
            command = [sys.executable, "-m", "repro", "serve"]
        else:
            here = Path(__file__).resolve().parent
            command = [sys.executable, str(here / "serve_child.py")]
        self.proc = subprocess.Popen(
            command + SERVE_ARGS, stdout=subprocess.PIPE, text=True
        )
        line = self.proc.stdout.readline()
        match = re.search(r"serving on http://([\d.]+):(\d+)", line)
        if match is None:
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.address = (match.group(1), int(match.group(2)))
        deadline = CLOCK() + 60.0
        while True:
            try:
                if self._request("GET", "/healthz")[0] == 200:
                    break
            except OSError:
                pass
            if CLOCK() > deadline:
                raise RuntimeError("repro serve never answered /healthz")
            time.sleep(0.01)
        # One concurrent request per client, so every worker process
        # the server will use is spawned before timing starts.
        replies: list[tuple[int, bytes]] = [(0, b"")] * len(
            self.warmup_bodies
        )

        def warm(i: int) -> None:
            replies[i] = self._request(
                "POST", "/detect", self.warmup_bodies[i]
            )

        threads = [
            threading.Thread(target=warm, args=(i,))
            for i in range(len(self.warmup_bodies))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for status, body in replies:
            if status != 200:
                raise RuntimeError(f"warm-up request answered {status}")
        self.warmup_digest = digest(
            json.loads(replies[0][1])["result"]["labels"]
        )

    def run(self, seconds: float) -> dict:
        counter = itertools.count()
        records: list[tuple[int, float, float, int | None, bytes]] = []
        start = CLOCK()
        deadline = start + seconds

        def client() -> None:
            while CLOCK() < deadline:
                index = next(counter) % len(self.bodies)
                began = CLOCK()
                try:
                    status, body = self._request(
                        "POST", "/detect", self.bodies[index]
                    )
                except OSError as error:
                    status, body = None, repr(error).encode()
                records.append((index, began, CLOCK(), status, body))

        threads = [
            threading.Thread(target=client) for _ in range(SERVE_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.window = (start, max((r[2] for r in records), default=start))
        for index, began, ended, status, body in records:
            if status != 200:
                self.failures.append(
                    f"request for input {index} answered {status}: "
                    f"{body[:200]!r}"
                )
                continue
            output = Output.from_dict(
                index, self.graphs[index], json.loads(body)
            )
            self.outputs.append(output)
            self.latencies.append(ended - began)
            self.round_trips.append(ended - began - output.total_s)
            self.ops += 1
        return self._samples(len(records))

    def complete(self) -> None:
        seen = {o.key for o in self.outputs}
        for index in sorted(self.quality_keys - seen):
            status, body = self._request("POST", "/detect", self.bodies[index])
            if status != 200:
                self.failures.append(
                    f"request for input {index} answered {status}"
                )
                continue
            self.outputs.append(
                Output.from_dict(index, self.graphs[index], json.loads(body))
            )

    def counters(self) -> dict:
        stats = json.loads(self._request("GET", "/stats")[1])
        self.stats = {**stats["session"], "server": stats["server"]}
        return self.stats

    def extra_layers(self) -> dict[str, float]:
        return {
            "server.overhead_ms": 1000.0 * statistics.fmean(
                self.round_trips or [0.0]
            ),
            "server.shed": float(self.stats["server"]["shed"]),
        }

    def close(self) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        out, _ = self.proc.communicate(timeout=120)
        if self.proc.returncode != 0:
            self.run_failures.append(
                f"repro serve exited with {self.proc.returncode}"
            )
        for line in out.splitlines():
            if line.startswith("PERFBENCH-SPANS ") and self.tracer:
                self.tracer.spans.extend(
                    tuple(s) for s in json.loads(line.split(" ", 1)[1])
                )


RUNTIMES: dict[str, type[Runtime]] = {
    "multilevel_batch": MultilevelBatch,
    "serve_detect": ServeDetect,
    "stream_updates": StreamUpdates,
}
