"""Top-level synthetic corpus assembly.

``generate_corpus(seed)`` produces the full Stage I input: one
disengagement report document per (manufacturer, reporting period) plus
one OL-316 document per accident, with ground truth retained
out-of-band for evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..calibration.manufacturers import MANUFACTURERS, PERIODS, ReportPeriod
from ..parsing.records import (
    AccidentRecord,
    DisengagementRecord,
    MonthlyMileage,
)
from ..rng import DEFAULT_SEED, child_generator
from ..units import months_between
from .accidents import synthesize_accidents
from .events import synthesize_disengagements
from .fleet import build_roster
from .mileage import build_monthly_plan
from .reports import (
    RawDocument,
    render_accident_document,
    render_disengagement_document,
)


@dataclass
class SyntheticCorpus:
    """The complete synthetic Stage I corpus."""

    seed: int
    documents: list[RawDocument] = field(default_factory=list)

    @property
    def disengagement_documents(self) -> list[RawDocument]:
        """Annual disengagement reports."""
        return [d for d in self.documents if d.kind == "disengagement"]

    @property
    def accident_documents(self) -> list[RawDocument]:
        """OL-316 accident reports."""
        return [d for d in self.documents if d.kind == "accident"]

    def truth_disengagements(self) -> list[DisengagementRecord]:
        """All ground-truth disengagement records."""
        return [r for d in self.documents for r in d.truth_disengagements]

    def truth_accidents(self) -> list[AccidentRecord]:
        """All ground-truth accident records."""
        return [r for d in self.documents for r in d.truth_accidents]

    def truth_mileage(self) -> list[MonthlyMileage]:
        """All ground-truth mileage cells."""
        return [m for d in self.documents for m in d.truth_mileage]

    def manufacturers(self) -> list[str]:
        """Manufacturers present in the corpus."""
        return sorted({d.manufacturer for d in self.documents})


def generate_corpus(seed: int = DEFAULT_SEED,
                    manufacturers: list[str] | None = None,
                    ) -> SyntheticCorpus:
    """Generate the full calibrated corpus.

    ``manufacturers`` restricts synthesis to a subset (useful for fast
    tests); the default covers all twelve manufacturers of Table I.
    """
    names = manufacturers if manufacturers is not None else list(
        MANUFACTURERS)
    corpus = SyntheticCorpus(seed=seed)
    accident_index = 0
    for name in names:
        rng = child_generator(seed, f"manufacturer:{name}")
        roster = build_roster(name, rng)
        plan = build_monthly_plan(name, roster, rng)
        events = synthesize_disengagements(name, plan, rng)
        for period in ReportPeriod:
            months = set(months_between(*PERIODS[period]))
            period_events = [e for e in events if e.month in months]
            period_mileage = [c for c in plan.cells if c.month in months]
            if not period_events and not period_mileage:
                continue
            corpus.documents.append(render_disengagement_document(
                name, period, period_events, period_mileage))
        for accident in synthesize_accidents(name, roster, rng):
            corpus.documents.append(render_accident_document(
                name, accident, accident_index))
            accident_index += 1
    return corpus


__all__ = ["SyntheticCorpus", "generate_corpus"]
