"""ABL-SCHED — QHD schedule ablation.

Compares the qhd-default polynomial schedule against linear and
exponential crossovers on a fixed QUBO portfolio.  The qhd-default
schedule's three-phase structure (kinetic / global search / descent) is
the paper's core dynamical ingredient; this ablation quantifies how much
the schedule form matters to final solution quality.
"""

from __future__ import annotations

import pytest

from conftest import bench_scale, save_report
from repro.experiments.ablations import run_schedule_ablation


@pytest.mark.benchmark(group="ablations")
def test_ablation_schedules(benchmark):
    scale = bench_scale()

    def run():
        return run_schedule_ablation(
            n_instances=max(3, round(6 * scale)),
            n_variables=40,
            density=0.15,
            qhd_samples=12,
            qhd_steps=80,
            seed=3,
        )

    rows, table = benchmark.pedantic(run, rounds=1, iterations=1)
    save_report("ablation_schedules", table)

    assert len(rows) == 3
    by_name = {row.schedule: row for row in rows}
    # Every schedule must be within a bounded gap of the per-instance best;
    # the default should be competitive (not the uniformly worst).
    for row in rows:
        assert row.mean_gap_vs_best < 0.5, row.schedule
    worst = max(rows, key=lambda r: r.mean_gap_vs_best)
    assert by_name["qhd-default"].mean_gap_vs_best <= worst.mean_gap_vs_best
