"""QHD-EVOLUTION — preallocated engine vs the pre-engine inline loop.

Not a paper artefact: this bench guards the zero-allocation QHD
evolution engine (:class:`repro.qhd.engine.EvolutionEngine`) that PR 4
put under :class:`repro.qhd.QhdSolver`.  It times the *evolution loop
only* (no refinement, no measurement shots) in two implementations over
identical seeded runs, on random QUBOs of growing size and on one dense
community QUBO (``build_community_qubo`` of a seeded LFR graph at
k=8), the only instance whose fields the engine forms from the
coupling's Kronecker terms:

* ``baseline`` — the pre-PR inline loop, pinned verbatim below:
  per-step schedule calls, double ``|psi|^2`` passes
  (``position_expectations`` + ``sample_positions``), per-step kinetic
  re-exponentiation inside ``strang_step`` and ~15 fresh
  ``(samples, n, grid)`` temporaries per step;
* ``engine`` — a grid-major ``(grid, samples, n)`` tensor, one fused
  kinetic operator matmul and a doubling potential phase per step,
  fixed buffers updated in place, a single density pass per step, in
  both ``complex128`` (the baseline's dynamics up to rounding; the
  contract is pinned in ``tests/qhd/test_engine.py``) and
  ``complex64`` modes.  The baseline always takes the model's dense
  field mat-vec.

Each row of the JSON report names its ``model`` (``random`` or
``community``).

Besides the usual text report it writes
``benchmarks/results/qhd_evolution.json`` and appends the headline
``n >= 200`` complex128 point to the root-level
``BENCH_qhd_evolution.json`` perf trajectory (one entry per PR that
touches the evolution hot path).

Run standalone with ``python benchmarks/bench_qhd_evolution.py
[--quick]`` (``--quick`` forces small instances for CI) or through
pytest like the other ``bench_*`` modules.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from datetime import date
from pathlib import Path

import numpy as np

RESULTS_DIR = Path(__file__).parent / "results"
ROOT_TRAJECTORY = Path(__file__).parent.parent / "BENCH_qhd_evolution.json"
sys.path.insert(0, str(Path(__file__).parent))

from conftest import bench_scale, save_report  # noqa: E402


def _baseline_evolution(solver, model) -> None:
    """The pre-PR ``QhdSolver._run`` evolution loop, verbatim."""
    from repro.hamiltonian.grid import PositionGrid
    from repro.hamiltonian.observables import (
        normalize,
        position_expectations,
        sample_positions,
    )
    from repro.hamiltonian.propagator import KineticPropagator, strang_step
    from repro.utils.rng import ensure_rng

    rng = ensure_rng(solver._seed)
    n = model.n_variables
    grid = PositionGrid(solver.grid_points)
    points = grid.points
    spacing = grid.spacing
    propagator = KineticPropagator(solver.grid_points, spacing)
    energy_scale = solver._energy_scale(model)

    psi = solver._initial_wavepackets(rng, n, points, spacing)
    dt = solver.t_final / solver.n_steps
    for step in range(solver.n_steps):
        t_mid = (step + 0.5) * dt
        kin = solver.schedule.kinetic(t_mid)
        pot = solver.schedule.potential(t_mid)
        mu = position_expectations(psi, points, spacing)
        field_input = sample_positions(psi, points, spacing, seed=rng)
        field_input[0] = mu[0]
        fields = model.local_fields_batch(field_input) / energy_scale
        potential = fields[..., None] * points
        psi = strang_step(psi, potential, propagator, dt, kin, pot)
        if (step + 1) % solver.normalize_every == 0:
            psi = normalize(psi, spacing)
    normalize(psi, spacing)


def _engine_evolution(solver, model, dtype: str) -> None:
    """The engine-driven evolution with the same seeded dynamics."""
    from repro.qhd.engine import EvolutionEngine
    from repro.utils.rng import ensure_rng

    rng = ensure_rng(solver._seed)
    engine = EvolutionEngine(
        model,
        solver.schedule,
        n_samples=solver.n_samples,
        grid_points=solver.grid_points,
        n_steps=solver.n_steps,
        t_final=solver.t_final,
        normalize_every=solver.normalize_every,
        energy_scale=solver._energy_scale(model),
        dtype=dtype,
    )
    psi = solver._initial_wavepackets(
        rng, model.n_variables, engine.points, engine.spacing,
        engine.complex_dtype,
    )
    engine.evolve(psi, rng)
    engine.measure(rng, 0)


def _best_of(fn, repeats: int) -> float:
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run_qhd_evolution(scale: float) -> dict:
    """Time baseline vs engine across instance sizes; JSON report."""
    from repro.graphs.lfr import lfr_graph
    from repro.qhd.solver import QhdSolver
    from repro.qubo import build_community_qubo
    from repro.qubo.random_instances import random_qubo

    sizes = [60, 200]
    if scale >= 1.0:
        sizes.append(400)
    n_steps = max(20, int(round(60 * min(scale, 1.0))))
    repeats = 3 if scale >= 0.5 else 2

    models = [
        ("random", random_qubo(n, 0.2, seed=30 + idx))
        for idx, n in enumerate(sizes)
    ]
    # A dense community QUBO at k=8: 40 nodes (320 variables) below
    # full scale, 100 nodes (800 variables, near the Table-2 base
    # solve) at full scale.
    graph = lfr_graph(100 if scale >= 1.0 else 40, mixing=0.2, seed=40)[0]
    models.append(
        ("community", build_community_qubo(graph, 8, backend="dense").model)
    )

    instances = []
    for kind, model in models:
        n = model.n_variables
        solver = QhdSolver(
            n_samples=32, grid_points=32, n_steps=n_steps, seed=0
        )
        base = _best_of(lambda: _baseline_evolution(solver, model), repeats)
        full = _best_of(
            lambda: _engine_evolution(solver, model, "complex128"), repeats
        )
        half = _best_of(
            lambda: _engine_evolution(solver, model, "complex64"), repeats
        )
        instances.append(
            {
                "model": kind,
                "n_variables": n,
                "n_samples": 32,
                "grid_points": 32,
                "n_steps": n_steps,
                "baseline_ms_per_step": base / n_steps * 1e3,
                "engine_ms_per_step": full / n_steps * 1e3,
                "speedup": base / max(1e-12, full),
                "complex64_ms_per_step": half / n_steps * 1e3,
                "complex64_speedup": base / max(1e-12, half),
            }
        )

    large = [
        row
        for row in instances
        if row["model"] == "random" and row["n_variables"] >= 200
    ]
    return {
        "benchmark": "qhd_evolution",
        "scale": scale,
        "instances": instances,
        "min_speedup": min(row["speedup"] for row in instances),
        "min_speedup_large": (
            min(row["speedup"] for row in large) if large else None
        ),
    }


def report_text(report: dict) -> str:
    """Human-readable table of one evolution-engine run."""
    lines = [
        "QHD-EVOLUTION — preallocated engine vs pre-engine inline loop",
        f"(samples=32, grid=32, {report['instances'][0]['n_steps']} "
        "Strang steps; ms per step, best of repeats)",
        "-" * 82,
        f"{'model':>9} {'n':>6} {'baseline':>10} {'engine':>10} "
        f"{'speedup':>8} {'cplx64':>10} {'speedup':>8}",
    ]
    for row in report["instances"]:
        lines.append(
            f"{row['model']:>9} {row['n_variables']:>6} "
            f"{row['baseline_ms_per_step']:>8.2f}ms "
            f"{row['engine_ms_per_step']:>8.2f}ms "
            f"{row['speedup']:>7.2f}x "
            f"{row['complex64_ms_per_step']:>8.2f}ms "
            f"{row['complex64_speedup']:>7.2f}x"
        )
    if report["min_speedup_large"] is not None:
        lines.append(
            f"min complex128 speedup on random QUBOs at n >= 200: "
            f"{report['min_speedup_large']:.2f}x"
        )
    return "\n".join(lines)


def save_json(report: dict) -> Path:
    """Persist the JSON report under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "qhd_evolution.json"
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return path


def append_trajectory_point(report: dict) -> Path | None:
    """Append the headline n>=200 complex128 point to the root file.

    ``BENCH_qhd_evolution.json`` is the repo's perf trajectory for the
    QHD evolution hot path: one point per PR that touches it, so
    regressions show up as a drop between consecutive entries.  The
    headline is the first random QUBO with n >= 200.
    """
    large = [
        row
        for row in report["instances"]
        if row["model"] == "random" and row["n_variables"] >= 200
    ]
    if not large:
        return None
    headline = large[0]
    point = {
        "date": date.today().isoformat(),
        "n_variables": headline["n_variables"],
        "n_steps": headline["n_steps"],
        "dtype": "complex128",
        "baseline_ms_per_step": headline["baseline_ms_per_step"],
        "engine_ms_per_step": headline["engine_ms_per_step"],
        "speedup": headline["speedup"],
        "complex64_ms_per_step": headline["complex64_ms_per_step"],
        "complex64_speedup": headline["complex64_speedup"],
    }
    if ROOT_TRAJECTORY.exists():
        data = json.loads(ROOT_TRAJECTORY.read_text(encoding="utf-8"))
    else:
        data = {"benchmark": "qhd_evolution", "trajectory": []}
    data["trajectory"].append(point)
    ROOT_TRAJECTORY.write_text(
        json.dumps(data, indent=2) + "\n", encoding="utf-8"
    )
    return ROOT_TRAJECTORY


def test_qhd_evolution(benchmark):
    """pytest-benchmark entry point, consistent with the other benches."""
    scale = min(bench_scale(), 0.5)
    report = benchmark.pedantic(
        run_qhd_evolution, args=(scale,), rounds=1, iterations=1
    )
    save_report("qhd_evolution", report_text(report))
    path = save_json(report)
    print(f"[json saved to {path}]")

    assert len(report["instances"]) >= 2
    # The engine must beat the per-step reallocating loop everywhere.
    assert report["min_speedup"] > 1.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="force small instances regardless of REPRO_BENCH_SCALE — "
        "used by CI",
    )
    parser.add_argument(
        "--no-trajectory",
        action="store_true",
        help="skip appending to the root BENCH_qhd_evolution.json "
        "(CI uses this; trajectory points are committed from full runs)",
    )
    args = parser.parse_args(argv)
    scale = 0.4 if args.quick else bench_scale()
    report = run_qhd_evolution(scale)
    save_report("qhd_evolution", report_text(report))
    path = save_json(report)
    print(f"[json saved to {path}]")
    if not args.no_trajectory:
        traj = append_trajectory_point(report)
        if traj is not None:
            print(f"[trajectory point appended to {traj}]")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).parent.parent / "src"))
    sys.exit(main())
