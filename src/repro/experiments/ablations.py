"""Ablations of the reproduction's design choices.

* ABL-SCHED — QHD time-dependence schedule (qhd-default vs linear vs
  exponential) on a fixed QUBO portfolio.
* ABL-PEN — penalty weights lambda_A / lambda_S of the Algorithm 1 QUBO:
  constraint violations and modularity across penalty scales.
* ABL-ML — multilevel vs direct, and the Eq. 6 alpha/beta mix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.api import DETECTORS, SOLVERS
from repro.community.multilevel import MultilevelConfig
from repro.experiments.reporting import format_table
from repro.graphs.generators import planted_partition_graph
from repro.hamiltonian.schedules import available_schedules, get_schedule
from repro.qubo.builders import build_community_qubo, default_penalties
from repro.qubo.decode import assignment_violations
from repro.qubo.random_instances import PortfolioGenerator, PortfolioSpec
from repro.utils.validation import check_integer


@dataclass(frozen=True)
class ScheduleAblationRow:
    """Mean energy (lower is better) of one schedule over the portfolio."""

    schedule: str
    mean_energy: float
    mean_gap_vs_best: float
    wins: int


def run_schedule_ablation(
    n_instances: int = 6,
    n_variables: int = 40,
    density: float = 0.15,
    qhd_samples: int = 12,
    qhd_steps: int = 80,
    seed: int = 3,
) -> tuple[list[ScheduleAblationRow], str]:
    """ABL-SCHED: compare schedules on a fixed random-QUBO portfolio.

    Returns the per-schedule rows and a rendered table.  The "gap vs
    best" column measures each schedule's mean energy distance from the
    per-instance best across all schedules (0 = always best).
    """
    check_integer(n_instances, "n_instances", minimum=1)
    generator = PortfolioGenerator(seed=seed)
    spec = PortfolioSpec(
        n_instances=n_instances,
        mean_variables=n_variables,
        min_variables=max(8, n_variables // 2),
        max_variables=n_variables * 2,
        mean_density=density,
        community_fraction=0.5,
        name="ablation",
    )
    instances = generator.generate(spec)

    names = available_schedules()
    energies = np.zeros((len(names), len(instances)))
    for i, name in enumerate(names):
        for j, instance in enumerate(instances):
            solver = SOLVERS.create(
                "qhd",
                n_samples=qhd_samples,
                n_steps=qhd_steps,
                schedule=get_schedule(name, 1.0),
                seed=seed + j,
            )
            energies[i, j] = solver.solve(instance.model).energy

    best = energies.min(axis=0)
    scale = np.maximum(1.0, np.abs(best))
    rows = []
    for i, name in enumerate(names):
        gaps = (energies[i] - best) / scale
        wins = int(np.sum(energies[i] <= best + 1e-9))
        rows.append(
            ScheduleAblationRow(
                schedule=name,
                mean_energy=float(energies[i].mean()),
                mean_gap_vs_best=float(gaps.mean()),
                wins=wins,
            )
        )
    table = format_table(
        ["schedule", "mean_energy", "mean_gap_vs_best", "wins"],
        [
            [r.schedule, r.mean_energy, r.mean_gap_vs_best, r.wins]
            for r in rows
        ],
        title="ABL-SCHED — QHD schedule ablation",
    )
    return rows, table


@dataclass(frozen=True)
class PenaltyAblationRow:
    """Constraint health and quality at one penalty scaling."""

    assignment_scale: float
    balance_scale: float
    unassigned: int
    multi_assigned: int
    modularity: float


def run_penalty_ablation(
    n_communities: int = 4,
    community_size: int = 15,
    scales: tuple[float, ...] = (0.0, 0.25, 1.0, 4.0),
    seed: int = 5,
) -> tuple[list[PenaltyAblationRow], str]:
    """ABL-PEN: sweep the Eq. 3/4 penalty weights.

    Solves the same planted-partition instance with the assignment and
    balance penalties scaled by each factor (relative to the auto
    defaults) and reports raw constraint violations before repair plus
    post-repair modularity.
    """
    graph, _ = planted_partition_graph(
        n_communities, community_size, 0.35, 0.03, seed=seed
    )
    auto_a, auto_s = default_penalties(graph, n_communities)
    solver = SOLVERS.create(
        "simulated-annealing", n_sweeps=150, n_restarts=3, seed=seed
    )

    rows = []
    for scale in scales:
        community_qubo = build_community_qubo(
            graph,
            n_communities,
            lambda_assignment=scale * auto_a,
            lambda_balance=scale * auto_s,
        )
        result = solver.solve(community_qubo.model)
        unassigned, multi = assignment_violations(
            result.x, community_qubo.variable_map
        )
        detector = DETECTORS.create(
            "direct",
            solver=solver,
            lambda_assignment=scale * auto_a,
            lambda_balance=scale * auto_s,
        )
        detection = detector.detect(graph, n_communities)
        rows.append(
            PenaltyAblationRow(
                assignment_scale=scale,
                balance_scale=scale,
                unassigned=unassigned,
                multi_assigned=multi,
                modularity=detection.modularity,
            )
        )
    table = format_table(
        ["scale", "unassigned", "multi_assigned", "modularity"],
        [
            [r.assignment_scale, r.unassigned, r.multi_assigned, r.modularity]
            for r in rows
        ],
        title="ABL-PEN — penalty weight ablation (x auto defaults)",
    )
    return rows, table


@dataclass(frozen=True)
class MultilevelAblationRow:
    """Quality/time of one pipeline variant on the same graph."""

    variant: str
    modularity: float
    wall_time: float
    levels: int


def run_multilevel_ablation(
    n_communities: int = 4,
    community_size: int = 60,
    thresholds: tuple[int, ...] = (40, 80),
    alpha_beta: tuple[tuple[float, float], ...] = (
        (1.0, 0.0),
        (0.5, 0.5),
        (0.0, 1.0),
    ),
    seed: int = 9,
) -> tuple[list[MultilevelAblationRow], str]:
    """ABL-ML: direct-vs-multilevel and the Eq. 6 alpha/beta mix."""
    graph, _ = planted_partition_graph(
        n_communities, community_size, 0.2, 0.01, seed=seed
    )
    solver = SOLVERS.create(
        "simulated-annealing", n_sweeps=120, n_restarts=2, seed=seed
    )
    rows = []

    direct = DETECTORS.create("direct", solver=solver).detect(
        graph, n_communities
    )
    rows.append(
        MultilevelAblationRow(
            variant="direct",
            modularity=direct.modularity,
            wall_time=direct.wall_time,
            levels=0,
        )
    )
    for threshold in thresholds:
        for alpha, beta in alpha_beta:
            config = MultilevelConfig(
                threshold=threshold, alpha=alpha, beta=beta
            )
            result = DETECTORS.create(
                "multilevel", solver=solver, config=config
            ).detect(graph, n_communities)
            rows.append(
                MultilevelAblationRow(
                    variant=(
                        f"multilevel(theta={threshold}, "
                        f"alpha={alpha:g}, beta={beta:g})"
                    ),
                    modularity=result.modularity,
                    wall_time=result.wall_time,
                    levels=int(result.metadata.get("levels", 0)),
                )
            )
    table = format_table(
        ["variant", "modularity", "time_s", "levels"],
        [[r.variant, r.modularity, r.wall_time, r.levels] for r in rows],
        title="ABL-ML — multilevel ablation",
    )
    return rows, table
