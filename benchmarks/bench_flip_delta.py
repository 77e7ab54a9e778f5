"""FLIP-DELTA — incremental vs recompute per-sweep local-search cost.

Not a paper artefact: this bench guards the incremental flip-delta
engine (:class:`repro.qubo.delta.FlipDeltaState`) under the
SA/tabu/greedy sweep loops.  On sparse LFR-derived community QUBOs it
times the two ways of answering "what does flipping bit ``i`` cost?"
over identical flip sequences:

* ``sweep`` mode (the tabu/greedy shape) — each iteration finds the
  best single flip, then applies the next flip of the sequence:
  ``recompute`` takes ``np.argmin(model.flip_deltas(x))``, one full
  O(nnz) mat-vec each; ``incremental`` is the loop greedy and tabu run,
  the fused ``state.best_flip()`` argmin over the maintained fields plus
  ``state.flip(i)``, which rewrites the bit's coupling row and every
  factor row touching it;
* ``single`` mode (the SA shape) — ``recompute`` calls
  ``model.flip_delta(x, i)`` per attempt (which pays the factor
  projection every time); ``incremental`` is the O(1) ``state.delta(i)``
  read plus ``state.flip(i)``.

The flip sequence is drawn up front, so both sides of a mode do the
same moves.

A third mode, ``restarts``, times :class:`~repro.solvers.GreedySolver`'s
random-restart block both ways on the same seeded starts:
``sequential`` is one :func:`~repro.solvers.greedy.local_search` per
start, ``batched`` is one
:func:`~repro.solvers.greedy.local_search_rows` descent over them all.
It checks that both return the same local minima and energies.  It
then times ``GreedySolver().solve``, which descends only the starts
that can still reach a one-hot assignment, records how many it kept,
and checks each solve's ``x`` and energy against the unfiltered answer
built from the public pieces: :func:`~repro.solvers.greedy.greedy_construct`
and :func:`~repro.solvers.greedy.local_search`, then
``local_search_rows`` over every drawn start and a strict ``<`` fold.
Any mismatch exits with status 1.  The shapes are a dense QUBO of the
``serve_detect`` shape (LFR n=200, k=4) and a sparse one of the
``stream_updates`` shape (LFR n=1000, k=8; 300 nodes under
``--quick``).

Besides the usual text report it writes
``benchmarks/results/flip_delta.json`` (next to ``construction.json``)
with the shape::

    {"benchmark": "flip_delta", "instances": [
        {"n_nodes": ..., "n_variables": ..., "nnz": ...,
         "n_iterations": ...,
         "sweep_recompute_ms": ..., "sweep_incremental_ms": ...,
         "sweep_speedup": ...,
         "single_recompute_ms": ..., "single_incremental_ms": ...,
         "single_speedup": ...}, ...],
     "min_single_speedup": ...,
     "restarts": [
        {"backend": ..., "n_nodes": ..., "n_variables": ...,
         "n_restarts": ..., "max_sweeps": ...,
         "sequential_ms": ..., "batched_ms": ..., "speedup": ...,
         "solve_ms": ..., "kept_starts": [...]}, ...]}

Run standalone with ``python benchmarks/bench_flip_delta.py [--quick]``
(``--quick`` forces small instances for CI) or through pytest like the
other ``bench_*`` modules.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

RESULTS_DIR = Path(__file__).parent / "results"
sys.path.insert(0, str(Path(__file__).parent))

from conftest import bench_scale, save_report  # noqa: E402


def _sparse_instance(n_nodes: int, n_communities: int, seed: int):
    from repro.graphs.lfr import lfr_graph
    from repro.qubo import build_community_qubo

    graph, _ = lfr_graph(n_nodes, mixing=0.1, seed=seed)
    built = build_community_qubo(graph, n_communities, backend="sparse")
    return built.model


def _time_restarts(model, starts, max_sweeps, rounds):
    """Median seconds of both restart blocks; raises if they disagree."""
    from repro.solvers.greedy import local_search, local_search_rows

    sequential, batched = [], []
    for round_ in range(rounds):
        # Alternate which side runs first, so neither always warms up.
        for side in ((0, 1) if round_ % 2 else (1, 0)):
            start = time.perf_counter()
            if side:
                xs, energies, _ = local_search_rows(
                    model, starts, max_sweeps
                )
                batched.append(time.perf_counter() - start)
            else:
                singles = [
                    local_search(model, row, max_sweeps) for row in starts
                ]
                sequential.append(time.perf_counter() - start)
    for row, ((x, energy, _), got_x, got_energy) in enumerate(
        zip(singles, xs, energies)
    ):
        if not np.array_equal(x, got_x) or energy != got_energy:
            raise RuntimeError(
                f"batched restart {row} differs from local_search: "
                f"energy {got_energy!r} vs {energy!r}"
            )
    return float(np.median(sequential)), float(np.median(batched))


def _unfiltered_answer(model, n_restarts, max_sweeps, seed):
    """``(x, energy)`` of a greedy solve that descends every drawn start."""
    from repro.solvers.greedy import (
        greedy_construct,
        local_search,
        local_search_rows,
    )
    from repro.utils.rng import ensure_rng

    best_x, best_energy, _ = local_search(
        model, greedy_construct(model), max_sweeps
    )
    starts = ensure_rng(seed).random((n_restarts - 1, model.n_variables))
    xs, energies, _ = local_search_rows(model, starts < 0.5, max_sweeps)
    for x, energy in zip(xs, energies.tolist()):
        if energy < best_energy:
            best_x, best_energy = x, energy
    return best_x, best_energy


def _time_solves(model, n_restarts, max_sweeps, rounds):
    """Median ``GreedySolver.solve`` seconds and per-seed kept starts.

    One solve per seed ``0..rounds-1``; raises unless each returns the
    unfiltered answer.
    """
    from repro.solvers.greedy import GreedySolver

    seconds, kept = [], []
    for seed in range(rounds):
        solver = GreedySolver(
            n_restarts=n_restarts, max_sweeps=max_sweeps, seed=seed
        )
        start = time.perf_counter()
        result = solver.solve(model)
        seconds.append(time.perf_counter() - start)
        kept.append(result.metadata["restarts"] - 1)
        want_x, want_energy = _unfiltered_answer(
            model, n_restarts, max_sweeps, seed
        )
        same_x = np.array_equal(result.x, want_x)
        if not same_x or result.energy != want_energy:
            raise RuntimeError(
                f"GreedySolver seed {seed} differs from the unfiltered "
                f"answer: energy {result.energy!r} vs {want_energy!r}"
            )
    return float(np.median(seconds)), kept


def run_restarts(
    scale: float, n_restarts: int = 8, max_sweeps: int = 100
) -> list[dict]:
    """Time the greedy restart block and solve on the serve and stream shapes.

    Both run on one BLAS thread, the budget a ``repro serve`` or
    ``repro stream`` worker gets on two cores; with more, the dense
    mat-vecs' thread wake-ups swamp the timings.
    """
    from repro.api.threads import blas_threads, set_blas_threads
    from repro.graphs.lfr import lfr_graph
    from repro.qubo import build_community_qubo

    shapes = [
        ("dense", 200, 0.1, 4),
        ("sparse", max(300, int(round(1000 * scale))), 0.2, 8),
    ]
    rng = np.random.default_rng(1)
    rows = []
    previous = blas_threads()
    set_blas_threads(1)
    try:
        for backend, n_nodes, mixing, k in shapes:
            graph, _ = lfr_graph(n_nodes, mixing=mixing, seed=1)
            model = build_community_qubo(graph, k, backend=backend).model
            n = model.n_variables
            starts = (rng.random((n_restarts - 1, n)) < 0.5).astype(float)
            sequential, batched = _time_restarts(
                model, starts, max_sweeps, 5
            )
            solve, kept = _time_solves(model, n_restarts, max_sweeps, 5)
            rows.append(
                {
                    "backend": backend,
                    "n_nodes": n_nodes,
                    "n_variables": n,
                    "n_restarts": n_restarts,
                    "max_sweeps": max_sweeps,
                    "sequential_ms": sequential * 1e3,
                    "batched_ms": batched * 1e3,
                    "speedup": sequential / max(1e-12, batched),
                    "solve_ms": solve * 1e3,
                    "kept_starts": kept,
                }
            )
    finally:
        if previous is not None:
            set_blas_threads(previous)
    return rows


def _time_sweep_recompute(model, flips, x0) -> float:
    """Old tabu/greedy shape: fresh flip_deltas mat-vec + argmin."""
    x = x0.copy()
    start = time.perf_counter()
    for var in flips:
        _ = int(np.argmin(model.flip_deltas(x)))
        x[var] = 1.0 - x[var]
    return time.perf_counter() - start


def _time_sweep_incremental(model, flips, x0) -> float:
    """Delta-state tabu/greedy shape: fused best_flip + flip."""
    from repro.solvers.base import flip_state

    start = time.perf_counter()
    state = flip_state(model, x0.copy())
    for var in flips:
        state.best_flip()
        state.flip(int(var))
    return time.perf_counter() - start


def _time_single_recompute(model, flips, x0) -> float:
    """Old SA shape: fresh model.flip_delta per attempted flip."""
    x = x0.copy()
    start = time.perf_counter()
    for var in flips:
        _ = model.flip_delta(x, int(var))
        x[var] = 1.0 - x[var]
    return time.perf_counter() - start


def _time_single_incremental(model, flips, x0) -> float:
    """Delta-state SA shape: O(1) delta reads + O(row nnz) flips."""
    from repro.solvers.base import flip_state

    start = time.perf_counter()
    state = flip_state(model, x0.copy())
    for var in flips:
        _ = state.delta(int(var))
        state.flip(int(var))
    return time.perf_counter() - start


def run_flip_delta(scale: float, n_communities: int = 4) -> dict:
    """Time both sweep-loop styles on sparse LFR QUBOs; JSON report."""
    sizes = [
        max(300, int(round(600 * scale))),
        max(800, int(round(1600 * scale))),
    ]
    n_iterations = max(150, int(round(400 * scale)))
    rng = np.random.default_rng(0)

    instances = []
    for idx, n_nodes in enumerate(sizes):
        model = _sparse_instance(n_nodes, n_communities, seed=40 + idx)
        n = model.n_variables
        x0 = (rng.random(n) < 0.5).astype(np.float64)
        flips = rng.integers(0, n, size=n_iterations)

        # Warm once (lazy CSC build, caches), then measure.
        _time_sweep_incremental(model, flips[:2], x0)
        sweep_re = _time_sweep_recompute(model, flips, x0)
        sweep_inc = _time_sweep_incremental(model, flips, x0)
        single_re = _time_single_recompute(model, flips, x0)
        single_inc = _time_single_incremental(model, flips, x0)

        instances.append(
            {
                "n_nodes": n_nodes,
                "n_variables": n,
                "nnz": int(model.nnz),
                "n_factors": int(model.n_factors),
                "n_iterations": int(n_iterations),
                "sweep_recompute_ms": sweep_re / n_iterations * 1e3,
                "sweep_incremental_ms": sweep_inc / n_iterations * 1e3,
                "sweep_speedup": sweep_re / max(1e-12, sweep_inc),
                "single_recompute_ms": single_re / n_iterations * 1e3,
                "single_incremental_ms": single_inc / n_iterations * 1e3,
                "single_speedup": single_re / max(1e-12, single_inc),
            }
        )

    return {
        "benchmark": "flip_delta",
        "scale": scale,
        "n_communities": n_communities,
        "instances": instances,
        "min_single_speedup": min(
            row["single_speedup"] for row in instances
        ),
        "restarts": run_restarts(scale),
    }


def report_text(report: dict) -> str:
    """Human-readable table of one flip-delta run."""
    lines = [
        "FLIP-DELTA — incremental vs recompute per-sweep cost",
        f"sparse LFR community QUBOs, k={report['n_communities']}",
        "-" * 72,
        f"{'nk':>7} {'nnz':>9} {'mode':>7} {'recompute':>11} "
        f"{'incremental':>12} {'speedup':>8}",
    ]
    for row in report["instances"]:
        for mode in ("sweep", "single"):
            lines.append(
                f"{row['n_variables']:>7} {row['nnz']:>9} {mode:>7} "
                f"{row[f'{mode}_recompute_ms']:>9.3f}ms "
                f"{row[f'{mode}_incremental_ms']:>10.3f}ms "
                f"{row[f'{mode}_speedup']:>7.1f}x"
            )
    lines.append(
        f"min single-flip speedup: {report['min_single_speedup']:.1f}x"
    )
    lines += [
        "",
        "greedy restart block, same starts (identical minima checked),",
        "and GreedySolver.solve (unfiltered answer checked)",
        f"{'backend':>7} {'n':>7} {'restarts':>8} {'sequential':>11} "
        f"{'batched':>10} {'speedup':>8} {'solve':>10} {'kept':>8}",
    ]
    for row in report["restarts"]:
        drawn = (row["n_restarts"] - 1) * len(row["kept_starts"])
        kept = f"{sum(row['kept_starts'])}/{drawn}"
        lines.append(
            f"{row['backend']:>7} {row['n_variables']:>7} "
            f"{row['n_restarts'] - 1:>8} {row['sequential_ms']:>9.2f}ms "
            f"{row['batched_ms']:>8.2f}ms {row['speedup']:>7.2f}x "
            f"{row['solve_ms']:>8.2f}ms {kept:>8}"
        )
    return "\n".join(lines)


def save_json(report: dict) -> Path:
    """Persist the JSON report under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "flip_delta.json"
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return path


def test_flip_delta(benchmark):
    """pytest-benchmark entry point, consistent with the other benches."""
    scale = min(bench_scale(), 0.5)
    report = benchmark.pedantic(
        run_flip_delta, args=(scale,), rounds=1, iterations=1
    )
    save_report("flip_delta", report_text(report))
    path = save_json(report)
    print(f"[json saved to {path}]")

    assert len(report["instances"]) == 2
    assert [row["backend"] for row in report["restarts"]] == [
        "dense",
        "sparse",
    ]
    # The engine must beat per-iteration recomputation on sparse models.
    assert report["min_single_speedup"] > 1.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="force small instances regardless of REPRO_BENCH_SCALE — "
        "used by CI",
    )
    args = parser.parse_args(argv)
    scale = 0.3 if args.quick else bench_scale()
    report = run_flip_delta(scale)
    save_report("flip_delta", report_text(report))
    path = save_json(report)
    print(f"[json saved to {path}]")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).parent.parent / "src"))
    sys.exit(main())
