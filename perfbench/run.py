"""The repository benchmark: north-star workloads, one command.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve_detect --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 20      # every workload

Each run generates the workload's inputs from ``--seed``, then starts
fresh workload processes (``child.py``) that set the program up, run
ops for ``--seconds`` and check every output.  With ``--trace 0`` it
reports the end-to-end metrics; ``setup_s`` is the median over
:data:`SETUP_PROBES` extra set-up-only processes and the measuring one.
With ``--trace 1`` it runs the workload once plainly and once with the
layer wrappers installed, and reports the per-layer metrics plus the
tracing overhead.  The last stdout line is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``); the exit code is
non-zero when any check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()

#: Extra processes per workload that only set up and warm up; with the
#: measuring process they give the set-up samples of a run.  Set-up
#: time is mostly interpreter start and imports, which swing by 20-40%
#: between processes, so cheap set-ups take more samples.
SETUP_PROBES = {"multilevel_batch": 2, "serve_detect": 8, "stream_updates": 8}

#: Every run finishes well inside the three minutes a run may take.
DEADLINE_S = 170.0


class RunError(RuntimeError):
    """A workload process failed or ran out of time."""


def _stop_group(pgid: int) -> None:
    """Kill whatever is left of a workload's process group and wait."""
    import system

    deadline = time.monotonic() + 10.0
    while system.group_members(pgid):
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            break
        if time.monotonic() > deadline:
            raise RunError(f"process group {pgid} would not exit")
        time.sleep(0.05)


def _child_env() -> dict[str, str]:
    """The program runs as shipped: BLAS/OpenMP thread variables unset."""
    import system

    env = {
        k: v for k, v in os.environ.items() if k not in system.THREAD_VARS
    }
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def launch(
    name: str,
    mode: str,
    seconds: float,
    payload: bytes,
    deadline: float,
) -> dict[str, Any]:
    """Run one workload process to completion and return its result."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), name, mode, str(seconds)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        env=_child_env(),
        cwd=ROOT,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(
            payload, timeout=max(1.0, deadline - time.monotonic())
        )
    except subprocess.TimeoutExpired:
        _stop_group(proc.pid)
        proc.wait()
        raise RunError(f"{name} {mode} process ran out of time") from None
    finally:
        _stop_group(proc.pid)
    lines = out.decode().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"{name} {mode} process exited {proc.returncode}")
    return json.loads(lines[-1])


def _fingerprint(payload: bytes) -> str:
    """Identifies the inputs, the program source that saw them and the
    harness that digested its outputs."""
    digest = hashlib.sha256(payload)
    sources = sorted((ROOT / "src" / "repro").rglob("*.py"))
    for path in sources + sorted(HERE.glob("*.py")):
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _check_digests(
    name: str, seed: int, fingerprint: str, results: list[dict]
) -> list[str]:
    """Outputs of one input must match across every run of the workload.

    Digests persist in ``.bench_build/perfbench/`` of the checkout, so
    repeated runs of one program with one seed are compared too.
    """
    problems = []
    warm = {r["warmup_digest"] for r in results}
    if len(warm) != 1:
        problems.append("warm-up output differs between processes")
    store = ROOT / ".bench_build" / "perfbench" / "digests.json"
    known = json.loads(store.read_text()) if store.is_file() else {}
    entry = known.setdefault(f"{name}:{seed}:{fingerprint}", {})
    entry.setdefault("warmup", next(iter(warm)))
    if entry["warmup"] not in warm:
        problems.append("warm-up output differs from an earlier run")
    for result in results:
        for key, value in result.get("digests", {}).items():
            if entry.setdefault(key, value) != value:
                problems.append(
                    f"output for input {key} differs from an earlier run"
                )
    store.parent.mkdir(parents=True, exist_ok=True)
    scratch = store.with_suffix(".tmp")
    scratch.write_text(json.dumps(known))
    os.replace(scratch, store)
    return problems


def run_workload(
    name: str, seed: int, seconds: float, trace: bool
) -> tuple[bool, int, int, dict[str, float], list[str]]:
    """One benchmark run: ``(correct, attempted, failed, metrics, lines)``."""
    import report
    import workloads

    deadline = time.monotonic() + DEADLINE_S
    payload = pickle.dumps(workloads.generate(name, seed))
    fingerprint = _fingerprint(payload)

    def run(mode: str) -> dict[str, Any]:
        return launch(name, mode, seconds, payload, deadline)

    if trace:
        plain, traced = run("run"), run("trace")
        runs = [plain, traced]
        metrics = dict(traced["layers"])
        metrics["trace.overhead_ms"] = statistics.median(
            traced["latencies_ms"]
        ) - statistics.median(plain["latencies_ms"])
        metrics["env.blas_threads"] = float(traced["env"]["blas_threads"])
        metrics = {key: metrics[key] for key in report.PER_LAYER}
        units = report.PER_LAYER
        counts = None
        checked = runs
    else:
        probes = [run("setup") for _ in range(SETUP_PROBES[name])]
        runs = [run("run")]
        setups = [r["setup_s"] for r in probes + runs]
        metrics = report.end_to_end(setups, runs[0])
        units = report.END_TO_END
        counts = report.sample_counts(setups, runs[0])
        checked = probes + runs
    problems = _check_digests(name, seed, fingerprint, checked)
    failures = [f for r in runs for f in r["failures"]] + problems
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs) + len(problems)
    lines = report.describe(name, seed, metrics, units, counts)
    measured = runs[0]
    lines.append(
        f"  {'error_rate':<28} {failed / max(1, attempted):>14.6g} "
        f"{'ratio':<6}  n={attempted}"
    )
    p90 = report.tail_percentile(measured["latencies_ms"], 90)
    if p90 is not None:
        lines.append(
            f"  {'latency_p90_ms':<28} {p90:>14.6g} {'ms':<6}"
            f"  n={len(measured['latencies_ms'])}"
        )
    lines.append("  resolved " + json.dumps(measured["resolved"]))
    lines.append("  env " + json.dumps(measured["env"]))
    lines.extend(f"  FAILED {f}" for f in failures[:20])
    return not failures, attempted, failed, metrics, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            "perfbench: no src/repro here; run from a checkout's root",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import report
    from workloads import WORKLOADS

    if args.all:
        names = list(WORKLOADS)
    elif args.workload in WORKLOADS:
        names = [args.workload]
    else:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    summary = {}
    all_correct = True
    for name in names:
        try:
            correct, attempted, failed, metrics, lines = run_workload(
                name, args.seed, args.seconds, bool(args.trace)
            )
        except RunError as error:
            print(f"perfbench: {error}", file=sys.stderr)
            return 1
        print("\n".join(lines), flush=True)
        all_correct &= correct
        summary[name] = (correct, attempted, failed, metrics)
    units = report.PER_LAYER if args.trace else report.END_TO_END
    if args.all:
        print(json.dumps({
            name: json.loads(report.result_line(*entry, units))
            for name, entry in summary.items()
        }))
    else:
        print(report.result_line(*summary[names[0]], units))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
