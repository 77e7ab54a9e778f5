"""Table II and Figure 6: multilevel detection on the large networks.

Synthetic substitutes matched to the four SNAP instances (facebook,
lastfm_asia, musae_chameleon, tvshow) are partitioned with the multilevel
Algorithm 2 pipeline, once with QHD as the base solver and once with the
exact branch & bound under a matched time budget.  Each pairing repeats
over several seeds; the report gives mean ± std modularity (Table II) and
the density-vs-relative-advantage series of Figure 6.

The driver is fleet-shaped: every (instance × seed) trial is planned up
front, the QHD pipelines fan out as one
:meth:`repro.api.Session.detect_batch` call with per-trial specs, the
exact branch & bound budgets are derived from the QHD artifacts, and the
exact pipelines fan out as a second batch — so on a multi-core runner
the whole table parallelises across processes, while every trial still
runs its own freshly seeded pipeline (rows are bit-identical to the old
per-trial loop).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.api import RunArtifact, Session
from repro.api.session import session_scope
from repro.datasets.registry import InstanceSpec, table2_instances
from repro.datasets.synthetic import (
    build_matched_graph,
    default_community_count,
    scaled_spec,
)
from repro.experiments.reporting import format_table
from repro.utils.validation import check_integer, check_positive


@dataclass(frozen=True)
class LargeNetworksConfig:
    """Knobs of the Table II experiment.

    ``instance_scale`` shrinks the networks (density preserved); 1.0
    reproduces the published sizes (facebook: 4,039 nodes).
    """

    instance_scale: float = 0.25
    n_seeds: int = 3
    n_communities: int | None = None
    max_communities: int = 16
    mixing: float = 0.2
    coarsen_threshold: int = 120
    qhd_samples: int = 16
    qhd_steps: int = 100
    qhd_grid_points: int = 16
    exact_time_factor: float = 1.0
    min_time_limit: float = 0.25
    seed: int = 11

    def __post_init__(self) -> None:
        check_positive(self.instance_scale, "instance_scale")
        check_integer(self.n_seeds, "n_seeds", minimum=1)
        check_integer(self.coarsen_threshold, "coarsen_threshold", minimum=2)
        check_positive(self.exact_time_factor, "exact_time_factor")
        check_positive(self.min_time_limit, "min_time_limit")


@dataclass(frozen=True)
class LargeNetworkRow:
    """One Table II row: per-seed modularities for both pipelines."""

    spec: InstanceSpec
    n_nodes: int
    n_edges: int
    density: float
    exact_modularities: tuple[float, ...]
    qhd_modularities: tuple[float, ...]
    qhd_time: float
    exact_time: float

    @property
    def exact_mean(self) -> float:
        return float(np.mean(self.exact_modularities))

    @property
    def exact_std(self) -> float:
        return float(np.std(self.exact_modularities))

    @property
    def qhd_mean(self) -> float:
        return float(np.mean(self.qhd_modularities))

    @property
    def qhd_std(self) -> float:
        return float(np.std(self.qhd_modularities))

    @property
    def relative_advantage_pct(self) -> float:
        """QHD's relative modularity advantage in percent (Figure 6)."""
        if self.exact_mean == 0:
            return 0.0
        return 100.0 * (self.qhd_mean - self.exact_mean) / self.exact_mean


@dataclass
class LargeNetworksReport:
    """All rows plus the Figure 6 density series."""

    rows: list[LargeNetworkRow] = field(default_factory=list)

    def fig6_series(self) -> list[tuple[str, float, float]]:
        """(instance, density, QHD relative advantage %) sorted by density."""
        series = [
            (row.spec.name, row.density, row.relative_advantage_pct)
            for row in self.rows
        ]
        return sorted(series, key=lambda item: item[1])

    def to_text(self) -> str:
        """Render Table II plus the Figure 6 series."""
        table_rows = [
            [
                row.spec.name,
                row.n_nodes,
                row.n_edges,
                100.0 * row.density,
                f"{row.exact_mean:.4f} ± {row.exact_std:.4f}",
                f"{row.qhd_mean:.4f} ± {row.qhd_std:.4f}",
                f"{row.relative_advantage_pct:+.2f}%",
            ]
            for row in self.rows
        ]
        table = format_table(
            [
                "instance",
                "nodes",
                "edges",
                "density%",
                "Q_exact",
                "Q_qhd",
                "qhd_adv",
            ],
            table_rows,
            title=(
                "Table II — large-network modularity (multilevel pipeline, "
                "mean ± std over seeds)"
            ),
        )
        lines = [table, "", "Figure 6 — advantage vs density:"]
        for name, density, advantage in self.fig6_series():
            lines.append(
                f"  {name:<18} density={density:.4f}  "
                f"QHD advantage {advantage:+.2f}%"
            )
        lines.append(
            "  (paper: facebook +5.49%, tvshow +0.33%, chameleon -0.19%, "
            "lastfm -3.79%)"
        )
        return "\n".join(lines)


@dataclass(frozen=True)
class _Trial:
    """One planned (instance × seed) pipeline pair."""

    graph: Any
    k: int
    trial_seed: int


def _plan_trials(
    working: InstanceSpec, config: LargeNetworksConfig
) -> list[_Trial]:
    """Build the per-seed graphs and community budgets for one instance."""
    from repro.community.louvain import louvain

    trials = []
    for trial in range(config.n_seeds):
        trial_seed = config.seed + 1000 * trial
        planted_k = config.n_communities or max(
            default_community_count(working.n_nodes),
            config.max_communities // 2,
        )
        graph, _ = build_matched_graph(
            working,
            n_communities=planted_k,
            mixing=config.mixing,
            seed=trial_seed,
        )
        # The paper's Q values imply unrestricted community counts; pick k
        # from the graph's own structure (Louvain count) capped by the
        # base-QUBO size budget.
        louvain_k = len(np.unique(louvain(graph)))
        k = min(config.max_communities, max(2, louvain_k))
        trials.append(_Trial(graph=graph, k=k, trial_seed=trial_seed))
    return trials


def _qhd_spec(
    trial: _Trial, config: LargeNetworksConfig
) -> dict[str, Any]:
    """The QHD-solved multilevel pipeline spec for one trial.

    Randomised local-moving order per pipeline run (``refine_seed``):
    this is how the run-to-run variance behind the paper's ± columns
    arises.
    """
    return {
        "detector": "multilevel",
        "detector_config": {
            "solver": {
                "name": "qhd",
                "config": {
                    "n_samples": config.qhd_samples,
                    "n_steps": config.qhd_steps,
                    "grid_points": config.qhd_grid_points,
                    "seed": trial.trial_seed,
                },
            },
            "config": {
                "threshold": config.coarsen_threshold,
                "refine_seed": trial.trial_seed + 1,
            },
        },
        "n_communities": trial.k,
    }


def _exact_spec(
    trial: _Trial, config: LargeNetworksConfig, qhd_artifact: RunArtifact
) -> dict[str, Any]:
    """The matched-budget branch & bound spec for one trial.

    The exact pipeline gets the wall time the QHD base solves took on
    the same graph — the paper's matched-time comparison — so this spec
    can only be built after the trial's QHD artifact exists.
    """
    qhd_result = qhd_artifact.result
    base_time = (
        qhd_result.solve_result.wall_time
        if qhd_result.solve_result
        else qhd_result.wall_time
    )
    time_limit = max(
        config.min_time_limit, config.exact_time_factor * base_time
    )
    return {
        "detector": "multilevel",
        "detector_config": {
            "solver": {
                "name": "branch-and-bound",
                "config": {"time_limit": time_limit},
            },
            "config": {
                "threshold": config.coarsen_threshold,
                "refine_seed": trial.trial_seed + 2,
            },
        },
        "n_communities": trial.k,
    }


def _assemble_row(
    spec: InstanceSpec,
    working: InstanceSpec,
    qhd_artifacts: list[RunArtifact],
    exact_artifacts: list[RunArtifact],
) -> LargeNetworkRow:
    return LargeNetworkRow(
        spec=spec,
        n_nodes=working.n_nodes,
        n_edges=working.n_edges,
        density=working.density,
        exact_modularities=tuple(
            a.result.modularity for a in exact_artifacts
        ),
        qhd_modularities=tuple(a.result.modularity for a in qhd_artifacts),
        qhd_time=sum(a.result.wall_time for a in qhd_artifacts),
        exact_time=sum(a.result.wall_time for a in exact_artifacts),
    )


def run_one_instance(
    spec: InstanceSpec,
    config: LargeNetworksConfig,
    session: Session | None = None,
) -> LargeNetworkRow:
    """Run the seed-replicated multilevel pair on one instance."""
    report = run_large_networks(config, instances=[spec], session=session)
    return report.rows[0]


def run_large_networks(
    config: LargeNetworksConfig | None = None,
    instances: list[InstanceSpec] | None = None,
    session: Session | None = None,
) -> LargeNetworksReport:
    """Regenerate Table II / Figure 6 on (scaled) matched instances.

    All (instance × seed) QHD pipelines run as one
    :meth:`repro.api.Session.detect_batch`, then the matched-budget
    exact pipelines as a second batch whose per-trial time limits come
    from the QHD artifacts.  ``session=None`` uses a throwaway
    ``Session(executor="auto")`` — process fan-out on multi-core
    machines, plain threads otherwise;
    either way rows match the sequential per-trial loop bit-for-bit.
    """
    config = config or LargeNetworksConfig()
    specs = instances if instances is not None else table2_instances()
    workings = [scaled_spec(spec, config.instance_scale) for spec in specs]
    trials_per_spec = [
        _plan_trials(working, config) for working in workings
    ]
    flat_trials = [
        trial for trials in trials_per_spec for trial in trials
    ]
    report = LargeNetworksReport()
    if not flat_trials:
        return report
    graphs = [trial.graph for trial in flat_trials]
    with session_scope(session, executor="auto") as scoped:
        qhd_artifacts = scoped.detect_batch(
            graphs, [_qhd_spec(trial, config) for trial in flat_trials]
        )
        exact_artifacts = scoped.detect_batch(
            graphs,
            [
                _exact_spec(trial, config, artifact)
                for trial, artifact in zip(flat_trials, qhd_artifacts)
            ],
        )
    cursor = 0
    for spec, working, trials in zip(specs, workings, trials_per_spec):
        span = slice(cursor, cursor + len(trials))
        report.rows.append(
            _assemble_row(
                spec, working, qhd_artifacts[span], exact_artifacts[span]
            )
        )
        cursor += len(trials)
    return report
