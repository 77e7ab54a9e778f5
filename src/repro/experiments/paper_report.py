"""One-shot generation of the full paper-vs-measured report.

``generate_paper_report`` runs every experiment at a configurable scale
and returns a single markdown-ish document comparing each measured
artefact against the numbers printed in the paper.  Individual sections
can be regenerated independently via the ``sections`` argument.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.ablations import (
    run_multilevel_ablation,
    run_penalty_ablation,
    run_schedule_ablation,
)
from repro.experiments.large_networks import (
    LargeNetworksConfig,
    run_large_networks,
)
from repro.experiments.small_networks import (
    SmallNetworksConfig,
    run_small_networks,
)
from repro.experiments.solver_comparison import (
    SolverComparisonConfig,
    run_solver_comparison,
)

ALL_SECTIONS = (
    "fig3-fig4",
    "table1-fig5",
    "table2-fig6",
    "ablations",
)


@dataclass(frozen=True)
class ReportScale:
    """Workload sizes for the combined report."""

    portfolio_scale: float = 0.02
    small_instance_scale: float = 0.2
    large_instance_scale: float = 0.1
    large_seeds: int = 2

    @classmethod
    def quick(cls) -> "ReportScale":
        """A few minutes on a laptop."""
        return cls()

    @classmethod
    def thorough(cls) -> "ReportScale":
        """Closer to the paper's sizes; tens of minutes."""
        return cls(
            portfolio_scale=0.1,
            small_instance_scale=0.5,
            large_instance_scale=0.25,
            large_seeds=3,
        )


def generate_paper_report(
    scale: ReportScale | None = None,
    sections: tuple[str, ...] = ALL_SECTIONS,
) -> str:
    """Run the selected experiments and render the combined report."""
    scale = scale or ReportScale.quick()
    unknown = set(sections) - set(ALL_SECTIONS)
    if unknown:
        raise ValueError(
            f"unknown sections {sorted(unknown)}; "
            f"choose from {ALL_SECTIONS}"
        )

    parts: list[str] = [
        "# Paper-vs-measured report",
        "",
        f"(generated at scale {scale})",
    ]

    if "fig3-fig4" in sections:
        report = run_solver_comparison(
            SolverComparisonConfig(portfolio_scale=scale.portfolio_scale)
        )
        parts += ["", "## Figures 3 and 4 — QUBO solver portfolio", ""]
        parts.append(report.to_text())

    if "table1-fig5" in sections:
        report = run_small_networks(
            SmallNetworksConfig(
                instance_scale=scale.small_instance_scale
            )
        )
        parts += ["", "## Table I and Figure 5 — small networks", ""]
        parts.append(report.to_text())

    if "table2-fig6" in sections:
        report = run_large_networks(
            LargeNetworksConfig(
                instance_scale=scale.large_instance_scale,
                n_seeds=scale.large_seeds,
            )
        )
        parts += ["", "## Table II and Figure 6 — large networks", ""]
        parts.append(report.to_text())

    if "ablations" in sections:
        parts += ["", "## Ablations", ""]
        _, table = run_schedule_ablation()
        parts.append(table)
        parts.append("")
        _, table = run_penalty_ablation()
        parts.append(table)
        parts.append("")
        _, table = run_multilevel_ablation()
        parts.append(table)

    return "\n".join(parts)
