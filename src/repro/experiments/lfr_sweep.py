"""LFR mixing sweep — the standard community-detection stress curve.

Not a paper artefact, but the canonical extension experiment for any CD
method: sweep the LFR mixing parameter ``mu`` (the fraction of each
node's edges that leave its community) and measure how long the pipeline
keeps recovering the planted partition.  Quality is reported as NMI
against ground truth; the curve's knee is the method's detectability
limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.api import Session, solver_to_spec
from repro.api.session import session_scope
from repro.community.louvain import louvain
from repro.community.metrics import normalized_mutual_information
from repro.experiments.reporting import format_table
from repro.graphs.lfr import lfr_graph
from repro.solvers.base import QuboSolver
from repro.utils.validation import check_integer


@dataclass(frozen=True)
class LfrSweepPoint:
    """Results at one mixing value."""

    mixing: float
    qhd_nmi: float
    louvain_nmi: float
    qhd_modularity: float


@dataclass
class LfrSweepReport:
    """The full sweep plus a rendered table."""

    points: list[LfrSweepPoint] = field(default_factory=list)

    def to_text(self) -> str:
        rows = [
            [p.mixing, p.qhd_nmi, p.louvain_nmi, p.qhd_modularity]
            for p in self.points
        ]
        return format_table(
            ["mixing", "NMI_qhd", "NMI_louvain", "Q_qhd"],
            rows,
            title="LFR mixing sweep (NMI vs planted communities)",
        )

    def detectability_knee(self, threshold: float = 0.5) -> float:
        """Largest mixing at which QHD's NMI still exceeds ``threshold``."""
        good = [p.mixing for p in self.points if p.qhd_nmi >= threshold]
        return max(good) if good else 0.0


def _point_spec(
    solver_spec: Any, n_communities: int, seed: int
) -> dict[str, Any]:
    """The QHD-detector run spec for one mixing point."""
    detector_config: dict[str, Any] = {
        "qhd_samples": 12,
        "qhd_steps": 80,
        "qhd_grid_points": 16,
        "seed": seed,
    }
    if solver_spec is not None:
        detector_config["solver"] = solver_spec
    return {
        "detector": "qhd",
        "detector_config": detector_config,
        "n_communities": n_communities,
    }


def run_lfr_sweep(
    n_nodes: int = 150,
    mixings: tuple[float, ...] = (0.05, 0.15, 0.3, 0.45, 0.6),
    n_communities: int = 8,
    solver: QuboSolver | None = None,
    seed: int = 17,
    session: Session | None = None,
) -> LfrSweepReport:
    """Sweep the LFR mixing parameter through the QHD pipeline.

    All mixing points fan out as one
    :meth:`repro.api.Session.detect_batch` with per-point specs
    (per-point seeds, shared solver config), so a multi-core runner
    sweeps the curve in parallel over the process executor;
    each point still gets a freshly seeded pipeline, so the curve is
    bit-identical to the old sequential loop.

    Parameters
    ----------
    n_nodes:
        LFR graph size per point.
    mixings:
        Mixing values ``mu`` to evaluate.
    n_communities:
        Community budget handed to the detector.
    solver:
        Base QUBO solver override (default: QHD with modest settings).
        Registered solvers are lowered to their spec form and rebuilt
        per point (bit-identical: every solver reseeds per solve).
    seed:
        Reproducibility seed.
    session:
        Run the sweep through an existing :class:`repro.api.Session`;
        ``None`` uses a throwaway ``Session(executor="auto")``.
    """
    check_integer(n_nodes, "n_nodes", minimum=20)
    report = LfrSweepReport()
    if not mixings:
        return report
    solver_spec = solver_to_spec(solver)
    graphs = []
    truths = []
    for index, mixing in enumerate(mixings):
        graph, truth = lfr_graph(
            n_nodes, mixing=float(mixing), seed=seed + index
        )
        graphs.append(graph)
        truths.append(truth)
    specs = [
        _point_spec(solver_spec, n_communities, seed + index)
        for index in range(len(mixings))
    ]
    # An unregistered live solver has no spec form and cannot cross a
    # process boundary; sweep it on the thread backend instead.
    lowered = solver_spec is None or isinstance(solver_spec, dict)
    with session_scope(
        session, executor="auto" if lowered else "thread"
    ) as scoped:
        artifacts = scoped.detect_batch(graphs, specs)
    for mixing, graph, truth, artifact in zip(
        mixings, graphs, truths, artifacts
    ):
        result = artifact.result
        louvain_labels = louvain(graph)
        report.points.append(
            LfrSweepPoint(
                mixing=float(mixing),
                qhd_nmi=normalized_mutual_information(
                    result.labels, truth
                ),
                louvain_nmi=normalized_mutual_information(
                    louvain_labels, truth
                ),
                qhd_modularity=result.modularity,
            )
        )
    return report
