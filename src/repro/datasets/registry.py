"""Registry of the paper's benchmark instances (Tables I and II).

Every row of both evaluation tables is recorded verbatim: instance name,
node count, edge count, density, and the modularity scores the paper
reports for GUROBI and QHD.  The registry drives both the synthetic
substitutes (:mod:`repro.datasets.synthetic`) and the paper-vs-measured
comparisons of :mod:`repro.experiments`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import DatasetError


@dataclass(frozen=True)
class InstanceSpec:
    """Published properties of one benchmark instance.

    Attributes
    ----------
    name:
        Instance identifier as printed in the paper.
    n_nodes, n_edges:
        Size columns of the table.
    density_pct:
        Edge density in percent, as published.
    paper_gurobi_modularity, paper_qhd_modularity:
        Modularity scores the paper reports for each solver.
    table:
        ``"table1"`` (small networks) or ``"table2"`` (large networks).
    """

    name: str
    n_nodes: int
    n_edges: int
    density_pct: float
    paper_gurobi_modularity: float
    paper_qhd_modularity: float
    table: str

    @property
    def density(self) -> float:
        """Edge density as a fraction."""
        return self.density_pct / 100.0

    @property
    def paper_winner(self) -> str:
        """Which solver the paper reports as better on this instance."""
        if self.paper_qhd_modularity > self.paper_gurobi_modularity:
            return "qhd"
        if self.paper_qhd_modularity < self.paper_gurobi_modularity:
            return "gurobi"
        return "tie"


# Table I: Instance Properties and Modularity Scores (paper §V-C).
_TABLE1 = [
    InstanceSpec("0", 333, 2_519, 4.56, 0.4523, 0.4610, "table1"),
    InstanceSpec("107", 1_034, 26_749, 5.01, 0.5290, 0.5241, "table1"),
    InstanceSpec("348", 224, 3_192, 12.78, 0.3055, 0.3063, "table1"),
    InstanceSpec("414", 150, 1_693, 15.15, 0.5438, 0.5438, "table1"),
    InstanceSpec("686", 168, 1_656, 11.80, 0.3347, 0.3347, "table1"),
    InstanceSpec("698", 61, 270, 14.75, 0.5369, 0.5369, "table1"),
    InstanceSpec("1684", 786, 14_024, 4.55, 0.5528, 0.5640, "table1"),
    InstanceSpec("1912", 747, 30_025, 10.78, 0.5167, 0.5239, "table1"),
    InstanceSpec("3437", 534, 4_813, 3.38, 0.6724, 0.6784, "table1"),
    InstanceSpec("3980", 52, 146, 11.01, 0.4619, 0.4619, "table1"),
]

# Table II: Comparison of Graph Properties and Modularity Scores (§V-D).
_TABLE2 = [
    InstanceSpec("facebook", 4_039, 88_234, 1.08, 0.7121, 0.7512, "table2"),
    InstanceSpec(
        "lastfm_asia", 7_626, 27_807, 0.10, 0.7455, 0.7172, "table2"
    ),
    InstanceSpec(
        "musae_chameleon", 2_279, 31_372, 1.21, 0.6567, 0.6554, "table2"
    ),
    InstanceSpec("tvshow", 3_894, 17_240, 0.23, 0.8196, 0.8223, "table2"),
]

_BY_NAME = {spec.name: spec for spec in _TABLE1 + _TABLE2}


def table1_instances() -> list[InstanceSpec]:
    """The ten small-network rows of Table I, in paper order."""
    return list(_TABLE1)


def table2_instances() -> list[InstanceSpec]:
    """The four large-network rows of Table II, in paper order."""
    return list(_TABLE2)


def get_instance(name: str) -> InstanceSpec:
    """Look up a registry instance by its published name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        known = ", ".join(sorted(_BY_NAME))
        raise DatasetError(
            f"unknown instance {name!r}; known instances: {known}"
        ) from None
