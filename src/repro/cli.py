"""Command-line interface.

Two subcommands::

    repro detect  --input graph.txt --communities 4 [--solver qhd ...]
    repro bench   --experiment fig3|fig4|table1|table2|fig5|fig6 [--scale S]

``detect`` runs the paper's pipeline on an edge-list file and prints the
assignment plus quality metrics; ``--spec spec.json`` drives the run from
a declarative :class:`repro.api.RunSpec` instead of individual flags, and
``--artifact out.json`` persists the full :class:`repro.api.RunArtifact`.
``bench`` regenerates one evaluation artefact at a chosen scale and
prints the report.  ``repro serve --port N --max-queue M`` exposes
``POST /detect`` / ``POST /solve`` over HTTP through one warm session
(:mod:`repro.server`), shedding load with 429 beyond the queue bound
and draining gracefully on SIGTERM/SIGINT.  ``repro lint [paths]``
runs the project-invariant static analysis (:mod:`repro.analysis`)
and exits non-zero on findings.
``repro --list-solvers`` enumerates every registered solver and
detector.  Everything resolves through the :mod:`repro.api` registries
— there is no CLI-private solver table.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    from repro.api import RunSpec
    from repro.graphs import Graph


class _ListSolversAction(argparse.Action):
    """``--list-solvers``: print the registries and exit (like --version)."""

    def __call__(self, parser, namespace, values, option_string=None):
        from repro.api import DETECTORS, SOLVERS

        print("solvers:   " + " ".join(SOLVERS.available()))
        print("detectors: " + " ".join(DETECTORS.available()))
        parser.exit(0)


def _build_solver(name: str, seed: int | None, time_limit: float | None):
    """Instantiate a solver by registry name.

    ``seed`` and ``time_limit`` are threaded into every solver that
    accepts them (all of them except brute-force's ``time_limit``);
    unsupported knobs warn instead of being silently dropped.
    """
    from repro.api import RegistryError, build_solver

    try:
        return build_solver(name, seed=seed, time_limit=time_limit)
    except RegistryError as error:
        raise SystemExit(str(error)) from None


def _load_graph(args: argparse.Namespace) -> Graph:
    """Read ``--input``; a missing or malformed file exits in one line."""
    from repro.exceptions import GraphError
    from repro.graphs.io import read_edge_list

    try:
        graph = read_edge_list(args.input, weighted=args.weighted)
    except (OSError, GraphError) as error:
        raise SystemExit(str(error)) from None
    print(
        f"loaded {args.input}: {graph.n_nodes} nodes, "
        f"{graph.n_edges} edges"
    )
    return graph


def _load_spec(path: str) -> RunSpec:
    """Read a ``--spec`` file; a missing or invalid one exits in one line."""
    import repro.api as api

    try:
        return api.RunSpec.from_file(path)
    except OSError as error:
        raise SystemExit(str(error)) from None
    except (ValueError, api.SpecError) as error:
        raise SystemExit(f"{path}: invalid spec: {error}") from None


def _print_result(graph, result, output, print_labels) -> None:
    from repro.community.metrics import partition_summary

    print(f"method:      {result.method}")
    print(f"modularity:  {result.modularity:.4f}")
    print(f"communities: {result.n_communities}")
    print(f"wall time:   {result.wall_time:.2f}s")
    summary = partition_summary(graph, result.labels)
    print(f"coverage:    {summary.coverage:.3f}")
    print(
        f"sizes:       min {summary.min_size}, max {summary.max_size}"
    )
    if output:
        np.savetxt(output, result.labels, fmt="%d")
        print(f"labels written to {output}")
    elif print_labels:
        print("labels:", " ".join(str(c) for c in result.labels))


def _merge_spec_overrides(spec, args: argparse.Namespace):
    """Apply explicitly-given CLI flags on top of a loaded RunSpec.

    ``--communities``/``--seed`` replace the spec's values;
    ``--time-limit`` and ``--direct-threshold`` are merged into the
    solver/detector configs when the spec's classes accept them and the
    spec does not already pin them, and warn otherwise — no flag is
    silently dropped.
    """
    import warnings

    import repro.api as api

    if args.communities is not None:
        spec = spec.replace(n_communities=args.communities)
    if args.seed is not None:
        spec = spec.replace(seed=args.seed)
    if args.time_limit is not None:
        detector_cls = (
            api.DETECTORS.get(spec.detector)
            if spec.detector in api.DETECTORS
            else None
        )
        shaping = {"solver"} | set(
            getattr(detector_cls, "default_solver_fields", ())
        )
        if (
            spec.solver is None
            and detector_cls is not None
            and "solver" in detector_cls.config_fields()
            and not (shaping & set(spec.detector_config))
        ):
            # The spec relies on the detector's default QHD solver and
            # does not customise it (no shaping fields set), so the
            # default is exactly a default-configured "qhd" — name it
            # explicitly so the budget can be threaded in, just like
            # the flag-driven path does.
            spec = spec.replace(
                solver="qhd",
                solver_config={"time_limit": args.time_limit},
            )
        else:
            solver_fields = (
                api.SOLVERS.get(spec.solver).config_fields()
                if spec.solver is not None and spec.solver in api.SOLVERS
                else ()
            )
            if (
                "time_limit" in solver_fields
                and "time_limit" not in spec.solver_config
            ):
                spec = spec.replace(
                    solver_config={
                        **spec.solver_config, "time_limit": args.time_limit
                    }
                )
            else:
                warnings.warn(
                    "--time-limit is ignored: the spec's solver does not "
                    "accept it, already pins one, or the spec customises "
                    "the detector's built-in solver",
                    RuntimeWarning,
                )
    if args.direct_threshold is not None:
        detector_fields = (
            api.DETECTORS.get(spec.detector).config_fields()
            if spec.detector in api.DETECTORS
            else ()
        )
        if (
            "direct_threshold" in detector_fields
            and "direct_threshold" not in spec.detector_config
        ):
            spec = spec.replace(
                detector_config={
                    **spec.detector_config,
                    "direct_threshold": args.direct_threshold,
                }
            )
        else:
            warnings.warn(
                "--direct-threshold is ignored: the spec's detector "
                "does not accept it or already pins one",
                RuntimeWarning,
            )
    return spec


def _session_line(stats: dict) -> str:
    """Render the resolved session backend for CLI output."""
    blas = stats["blas_threads"]
    return (
        f"executor:     {stats['executor']} "
        f"({stats['max_workers']} workers, "
        f"BLAS threads {'n/a' if blas is None else blas})"
    )


def _detect_repeated(
    api,
    graph,
    spec,
    repeats: int,
    executor: str = "thread",
    max_workers: int | None = None,
):
    """Run ``spec`` ``repeats`` times through one reusable session.

    Demonstrates (and exercises) the session runtime from the CLI: the
    repeats go through :meth:`repro.api.Session.detect_batch`, so
    ``--executor``/``--max-workers`` pick the backend (persistent
    thread pool, or a process pool fed array payloads).  Seeded runs
    are bit-identical for every executor, so only the last artifact is
    kept.
    """
    with api.Session(max_workers=max_workers, executor=executor) as session:
        artifacts = session.detect_batch([graph] * repeats, spec)
        stats = session.stats()
    reference = artifacts[0].result.labels
    if spec.seed is not None:
        for artifact in artifacts[1:]:
            if not np.array_equal(artifact.result.labels, reference):
                raise SystemExit(
                    "seeded repeat runs diverged — this is a bug, "
                    "please report it"
                )
    print(_session_line(stats))
    print(f"repeat runs:  {repeats}")
    for number, artifact in enumerate(artifacts, start=1):
        timings = artifact.timings
        print(
            f"  run {number:<3d} total {timings['total'] * 1e3:8.2f} ms "
            f"(build {timings['build'] * 1e3:7.2f} ms, "
            f"run {timings['run'] * 1e3:8.2f} ms)"
        )
    return artifacts[-1]


def _cmd_detect(args: argparse.Namespace) -> int:
    import repro.api as api

    graph = _load_graph(args)
    try:
        if args.spec:
            spec = _merge_spec_overrides(_load_spec(args.spec), args)
        else:
            if args.communities is None:
                raise SystemExit(
                    "--communities is required (or provide it via --spec)"
                )
            # Build the solver once (warn-or-apply seed/time_limit
            # threading), then lower it back to a {name, config} spec
            # dict so the --artifact spec stays declarative and
            # reloadable.
            solver = _build_solver(
                args.solver,
                args.seed,
                60.0 if args.time_limit is None else args.time_limit,
            )
            spec = api.RunSpec(
                detector="qhd",
                detector_config={
                    "direct_threshold": (
                        1000
                        if args.direct_threshold is None
                        else args.direct_threshold
                    ),
                    "solver": api.solver_to_spec(solver),
                },
                solver=args.solver,
                n_communities=args.communities,
                seed=args.seed,
            )
        if spec.n_communities is None:
            raise SystemExit("spec does not define n_communities")
        if args.repeat > 1:
            artifact = _detect_repeated(
                api,
                graph,
                spec,
                args.repeat,
                executor=args.executor,
                max_workers=args.max_workers,
            )
        else:
            artifact = api.detect(graph, spec)
    except (api.RegistryError, api.SpecError, api.ConfigError) as error:
        raise SystemExit(str(error)) from None
    _print_result(graph, artifact.result, args.output, args.print_labels)
    if args.artifact:
        with open(args.artifact, "w", encoding="utf-8") as handle:
            handle.write(artifact.to_json())
        print(f"run artifact written to {args.artifact}")
    return 0


def _read_event_batches(path: str) -> list:
    """Parse an events JSONL file into edge-event batches.

    One batch per non-empty line: a JSON array is a whole batch of
    events, a JSON object is a single-event batch.  Events use the
    :meth:`repro.graphs.Graph.apply_updates` dict form
    (``{"op": "insert"|"delete"|"reweight", "u": ..., "v": ...,
    "w": ...}``).
    """
    import json

    batches = []
    try:
        handle = open(path, encoding="utf-8")
    except OSError as error:
        raise SystemExit(str(error)) from None
    with handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as error:
                raise SystemExit(
                    f"{path}:{number}: invalid JSON event line: {error}"
                ) from None
            if isinstance(payload, dict):
                batches.append([payload])
            elif isinstance(payload, list):
                batches.append(payload)
            else:
                raise SystemExit(
                    f"{path}:{number}: event line must be a JSON object "
                    f"or array, got {type(payload).__name__}"
                )
    return batches


def _cmd_stream(args: argparse.Namespace) -> int:
    import repro.api as api
    from repro.exceptions import GraphError

    graph = _load_graph(args)
    spec = _load_spec(args.spec)
    try:
        if args.communities is not None:
            spec = spec.replace(n_communities=args.communities)
        if args.seed is not None:
            spec = spec.replace(seed=args.seed)
    except api.SpecError as error:
        raise SystemExit(str(error)) from None
    if spec.n_communities is None:
        raise SystemExit("spec does not define n_communities")
    batches = _read_event_batches(args.updates)

    artifacts = []
    # detect_stream runs every batch inline, so the session never
    # builds a pool: it only keeps the run count.
    session = api.Session()
    try:
        stream = session.detect_stream(
            graph, batches, spec, warm_start=not args.cold
        )
        for artifact in stream:
            result = artifact.result
            touched = result.metadata.get("stream_touched_nodes", 0)
            warm = result.metadata.get("warm_selected")
            warm_note = (
                ""
                if warm is None
                else f", warm start {'won' if warm else 'lost'}"
            )
            print(
                f"batch {artifact.index}: modularity "
                f"{result.modularity:.4f}, "
                f"{result.n_communities} communities, "
                f"{touched} touched node(s){warm_note}"
            )
            artifacts.append(artifact)
    except (api.RegistryError, api.SpecError, api.ConfigError) as error:
        raise SystemExit(str(error)) from None
    except GraphError as error:
        # A bad event fails its batch, the first one not yet printed.
        raise SystemExit(f"batch {len(artifacts)}: {error}") from None
    finally:
        session.close()
    if args.artifact:
        payload = "[" + ",\n".join(a.to_json() for a in artifacts) + "]"
        with open(args.artifact, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
        print(f"stream artifacts written to {args.artifact}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import repro.api as api

    scale = args.scale
    try:
        session = api.Session(
            max_workers=args.max_workers, executor=args.executor
        )
    except api.SessionError as error:
        raise SystemExit(str(error)) from None
    with session:
        print(_session_line(session.stats()))
        if args.experiment in ("fig3", "fig4"):
            from repro.experiments.solver_comparison import (
                SolverComparisonConfig,
                run_solver_comparison,
            )

            config = SolverComparisonConfig(
                portfolio_scale=max(0.002, 0.02 * scale),
                min_time_limit=2.0 if args.experiment == "fig4" else 1.0,
            )
            report = run_solver_comparison(config)
            print(report.to_text())
        elif args.experiment in ("table1", "fig5"):
            from repro.experiments.small_networks import (
                SmallNetworksConfig,
                run_small_networks,
            )

            config = SmallNetworksConfig(
                instance_scale=min(1.0, 0.2 * scale)
            )
            print(run_small_networks(config).to_text())
        elif args.experiment in ("table2", "fig6"):
            from repro.experiments.large_networks import (
                LargeNetworksConfig,
                run_large_networks,
            )

            config = LargeNetworksConfig(
                instance_scale=min(1.0, 0.1 * scale), n_seeds=2
            )
            print(
                run_large_networks(config, session=session).to_text()
            )
        else:
            raise SystemExit(f"unknown experiment {args.experiment!r}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal

    import repro.api as api
    from repro.server import ReproServer

    try:
        server = ReproServer(
            host=args.host,
            port=args.port,
            max_queue=args.max_queue,
            max_body_bytes=args.max_body_bytes,
            read_timeout=args.read_timeout,
            max_workers=args.max_workers,
            executor=args.executor,
        )
    except (api.SessionError, OSError) as error:
        raise SystemExit(str(error)) from None
    print(
        f"serving on {server.url} "
        f"(queue bound {server.max_queue}, "
        f"POST /detect /solve, GET /healthz /stats)",
        flush=True,
    )
    print(_session_line(server.session.stats()), flush=True)

    def _drain(signum: int, frame: object) -> None:
        print(
            f"received {signal.Signals(signum).name}; draining "
            f"(in-flight requests finish, new ones get 503)",
            flush=True,
        )
        server.request_shutdown()

    previous = {
        sig: signal.signal(sig, _drain)
        for sig in (signal.SIGTERM, signal.SIGINT)
    }
    try:
        server.serve_forever()
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    counters = server.stats()["server"]
    print(
        f"drained: {counters['served']} served, "
        f"{counters['shed']} shed, "
        f"{counters['timed_out']} timed out, "
        f"{counters['errors']} errors, "
        f"{counters['disconnected']} disconnected"
    )
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import RULES, LintEngine, LintRuleError, load_config
    from repro.analysis.engine import render_json, render_text

    if args.list_rules:
        for rule_id in RULES.available():
            print(f"{rule_id}  {RULES.get(rule_id).summary}")
        return 0
    try:
        config = load_config(args.config)
        engine = LintEngine(rules=args.rules, config=config)
        findings = engine.lint_paths(args.paths or ["src"])
    except (LintRuleError, FileNotFoundError, ValueError) as error:
        raise SystemExit(str(error)) from None
    report = render_json(findings) if args.json else render_text(findings)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
        print(f"lint report written to {args.output}")
    elif report:
        print(report)
    if findings:
        print(
            f"repro lint: {len(findings)} finding(s) in "
            f"{len({f.path for f in findings})} file(s)",
            file=sys.stderr,
        )
        return 1
    if not args.output and not args.json:
        print("repro lint: clean")
    return 0


def _add_session_flags(
    parser: argparse.ArgumentParser, default_executor: str
) -> None:
    """Attach the uniform session-backend flags to a subcommand.

    ``repro detect --repeat``, ``repro bench`` and ``repro serve`` all
    fan runs out through :class:`repro.api.Session`; these two flags
    pick its backend identically everywhere, and each command prints
    the resolved backend it ran on.
    """
    from repro.api.threads import available_cores

    parser.add_argument(
        "--executor",
        choices=("thread", "process", "auto"),
        default=default_executor,
        help=(
            "session batch backend: 'thread' (one persistent thread "
            "pool), 'process' (one persistent process pool), or "
            "'auto' (processes on multi-core machines; "
            f"default: {default_executor})"
        ),
    )
    parser.add_argument(
        "--max-workers",
        type=int,
        default=None,
        help=(
            "session executor width; runs executing concurrently get "
            "cores // width BLAS threads each, a lone run keeps every "
            f"core (default: min(8, cores); cores = {available_cores()} "
            "here)"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Scalable community detection with Quantum Hamiltonian "
            "Descent (DAC 2025 reproduction)"
        ),
    )
    parser.add_argument(
        "--list-solvers",
        nargs=0,
        action=_ListSolversAction,
        help="list registered solvers and detectors, then exit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    detect = sub.add_parser(
        "detect", help="detect communities in an edge-list file"
    )
    detect.add_argument("--input", required=True, help="edge-list path")
    detect.add_argument(
        "--communities",
        type=int,
        default=None,
        help="max communities k (required unless --spec provides it)",
    )
    detect.add_argument(
        "--solver",
        default="qhd",
        help="registered solver name (see repro --list-solvers)",
    )
    detect.add_argument(
        "--spec",
        default=None,
        help="JSON RunSpec file driving the whole run (overrides --solver)",
    )
    detect.add_argument("--seed", type=int, default=None)
    detect.add_argument(
        "--time-limit",
        type=float,
        default=None,
        help=(
            "wall-clock budget in seconds, applied to every solver "
            "that supports one (default 60 for flag-driven runs; "
            "merged into --spec runs when the spec's solver accepts it)"
        ),
    )
    detect.add_argument(
        "--direct-threshold",
        type=int,
        default=None,
        help=(
            "largest network solved by one direct QUBO "
            "(paper and default: 1000)"
        ),
    )
    detect.add_argument(
        "--repeat",
        type=int,
        default=1,
        help=(
            "run the spec this many times through one reusable session "
            "(prints per-run timings) and report the last run; "
            "--executor and --max-workers apply only to these repeats"
        ),
    )
    _add_session_flags(detect, default_executor="thread")
    detect.add_argument("--weighted", action="store_true")
    detect.add_argument(
        "--output", default=None, help="write labels to this file"
    )
    detect.add_argument(
        "--artifact",
        default=None,
        help="write the JSON run artifact (spec+result+timings) here",
    )
    detect.add_argument("--print-labels", action="store_true")
    detect.set_defaults(func=_cmd_detect)

    lint = sub.add_parser(
        "lint",
        help="run the project-invariant static analysis (REP rules)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--rule",
        action="append",
        dest="rules",
        default=None,
        metavar="REPnnn",
        help="run only this rule (repeatable; default: all registered)",
    )
    lint.add_argument(
        "--json",
        action="store_true",
        help="emit the JSON report instead of file:line:col text",
    )
    lint.add_argument(
        "--output",
        default=None,
        help="write the report to this file instead of stdout",
    )
    lint.add_argument(
        "--config",
        default=None,
        help=(
            "pyproject.toml providing [tool.repro.lint] overrides "
            "(default: ./pyproject.toml when present)"
        ),
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules with summaries, then exit",
    )
    lint.set_defaults(func=_cmd_lint)

    stream = sub.add_parser(
        "stream",
        help="stream detection over edge-event batches (JSONL)",
    )
    stream.add_argument("--input", required=True, help="edge-list path")
    stream.add_argument(
        "--spec",
        required=True,
        help="JSON RunSpec file re-run after every event batch",
    )
    stream.add_argument(
        "--updates",
        required=True,
        help=(
            "JSONL event file: one batch per line — a JSON array of "
            "events or a single {op,u,v,w} event object"
        ),
    )
    stream.add_argument(
        "--communities",
        type=int,
        default=None,
        help="override the spec's n_communities",
    )
    stream.add_argument(
        "--seed", type=int, default=None, help="override the spec's seed"
    )
    stream.add_argument(
        "--cold",
        action="store_true",
        help=(
            "disable warm starts: run each batch cold instead of "
            "seeding it with the previous partition, polished on the "
            "stream's QUBO"
        ),
    )
    stream.add_argument("--weighted", action="store_true")
    stream.add_argument(
        "--artifact",
        default=None,
        help="write the JSON array of per-batch run artifacts here",
    )
    stream.set_defaults(func=_cmd_stream)

    serve = sub.add_parser(
        "serve",
        help=(
            "serve detect/solve specs over HTTP through one warm "
            "session (stdlib server, bounded queue)"
        ),
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8000,
        help=(
            "bind port (default: 8000; 0 binds an ephemeral port, "
            "printed on startup)"
        ),
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=8,
        help=(
            "bound on in-flight + queued requests; beyond it the "
            "server sheds load with 429 + Retry-After (default: 8)"
        ),
    )
    serve.add_argument(
        "--max-body-bytes",
        type=int,
        default=8 * 1024 * 1024,
        help="request-body size cap; larger bodies get 413 "
        "(default: 8 MiB)",
    )
    serve.add_argument(
        "--read-timeout",
        type=float,
        default=30.0,
        help="seconds a connection may stay silent while its request "
        "is read; a stalled body gets 408 (default: 30)",
    )
    _add_session_flags(serve, default_executor="auto")
    serve.set_defaults(func=_cmd_serve)

    bench = sub.add_parser(
        "bench", help="regenerate one paper table/figure"
    )
    bench.add_argument(
        "--experiment",
        required=True,
        help="fig3 | fig4 | table1 | fig5 | table2 | fig6",
    )
    bench.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="workload scale multiplier (1.0 = laptop-calibrated)",
    )
    _add_session_flags(bench, default_executor="auto")
    bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
