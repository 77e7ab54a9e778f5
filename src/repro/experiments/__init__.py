"""Experiment runners regenerating every table and figure of the paper.

Each runner returns a report object with the measured rows plus a
``to_text()`` rendering that mirrors the corresponding paper artefact.
:func:`generate_paper_report` runs them all into one paper-vs-measured
report.
"""

from repro.experiments.reporting import format_table
from repro.experiments.solver_comparison import (
    InstanceOutcome,
    PortfolioReport,
    SolverComparisonConfig,
    run_solver_comparison,
)
from repro.experiments.small_networks import (
    SmallNetworksConfig,
    SmallNetworksReport,
    run_small_networks,
)
from repro.experiments.large_networks import (
    LargeNetworksConfig,
    LargeNetworksReport,
    run_large_networks,
)
from repro.experiments.paper_report import (
    ReportScale,
    generate_paper_report,
)
from repro.experiments.ablations import (
    run_multilevel_ablation,
    run_penalty_ablation,
    run_schedule_ablation,
)

__all__ = [
    "format_table",
    "SolverComparisonConfig",
    "InstanceOutcome",
    "PortfolioReport",
    "run_solver_comparison",
    "SmallNetworksConfig",
    "SmallNetworksReport",
    "run_small_networks",
    "LargeNetworksConfig",
    "LargeNetworksReport",
    "run_large_networks",
    "run_schedule_ablation",
    "run_penalty_ablation",
    "run_multilevel_ablation",
    "ReportScale",
    "generate_paper_report",
]
