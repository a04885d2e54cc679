"""Experiment registry: one entry per table and figure of the paper."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..pipeline.store import FailureDatabase
from . import figures_paper, tables_paper


@dataclass(frozen=True)
class Experiment:
    """One reproducible exhibit of the paper."""

    experiment_id: str
    kind: str  # "table" or "figure"
    description: str
    generator: Callable[[FailureDatabase], object]

    def run(self, db: FailureDatabase):
        """Generate the exhibit from a failure database."""
        return self.generator(db)


EXPERIMENTS: dict[str, Experiment] = {
    e.experiment_id: e for e in [
        Experiment("table1", "table",
                   "Fleet size, miles, and incidents per manufacturer",
                   tables_paper.table1),
        Experiment("table2", "table",
                   "Sample disengagement reports with tags",
                   tables_paper.table2),
        Experiment("table3", "table",
                   "Fault tag and category definitions",
                   tables_paper.table3),
        Experiment("table4", "table",
                   "Disengagements by root failure category",
                   tables_paper.table4),
        Experiment("table5", "table",
                   "Disengagements by modality",
                   tables_paper.table5),
        Experiment("table6", "table",
                   "Accidents and DPA per manufacturer",
                   tables_paper.table6),
        Experiment("table7", "table",
                   "AV reliability vs human drivers",
                   tables_paper.table7),
        Experiment("table8", "table",
                   "AV reliability vs airplanes and surgical robots",
                   tables_paper.table8),
        Experiment("figure2", "figure",
                   "Accident scenario event chains (case studies)",
                   figures_paper.figure2),
        Experiment("figure3", "figure",
                   "Hierarchical control structure (STPA)",
                   figures_paper.figure3),
        Experiment("figure4", "figure",
                   "DPM per car across manufacturers (boxes)",
                   figures_paper.figure4),
        Experiment("figure5", "figure",
                   "Cumulative disengagements vs cumulative miles",
                   figures_paper.figure5),
        Experiment("figure6", "figure",
                   "Fault-tag fractions per manufacturer",
                   figures_paper.figure6),
        Experiment("figure7", "figure",
                   "Yearly DPM distributions",
                   figures_paper.figure7),
        Experiment("figure8", "figure",
                   "Pooled log-log DPM vs miles correlation",
                   figures_paper.figure8),
        Experiment("figure9", "figure",
                   "DPM vs cumulative miles per manufacturer",
                   figures_paper.figure9),
        Experiment("figure10", "figure",
                   "Reaction-time distributions",
                   figures_paper.figure10),
        Experiment("figure11", "figure",
                   "Exponentiated-Weibull reaction-time fits",
                   figures_paper.figure11),
        Experiment("figure12", "figure",
                   "Collision-speed distributions with fits",
                   figures_paper.figure12),
    ]
}


def run_experiment(experiment_id: str, db: FailureDatabase):
    """Run one experiment by id."""
    return EXPERIMENTS[experiment_id].run(db)
