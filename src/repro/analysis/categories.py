"""Fault categorization: Question 2, Tables IV-V, Fig. 6.

Operates on the NLP-assigned tags of the consolidated database.
"""

from __future__ import annotations

from collections import Counter

from ..pipeline.store import FailureDatabase
from ..taxonomy import (
    FailureCategory,
    Modality,
    MlSubcategory,
    category_of,
    ml_subcategory_of,
)
from .stats import left_sum

#: Left out of the headline shares: "we ignore the numbers for Tesla,
#: as most of their categorical labels are marked Unknown-C".
SHARES_EXCLUDED = ("Tesla",)


def tag_fractions(db: FailureDatabase,
                  manufacturers: list[str] | None = None,
                  ) -> dict[str, dict[str, float]]:
    """Fig. 6: fraction of disengagements per fault tag (display name).

    The two AV Controller tags collapse to one display name, as in the
    figure's legend.
    """
    names = manufacturers if manufacturers is not None \
        else db.manufacturers()
    out: dict[str, dict[str, float]] = {}
    for name in names:
        counts: Counter = Counter()
        total = 0
        for tag in db.tag_values(name):
            counts[tag.display_name] += 1
            total += 1
        if total:
            out[name] = {tag: count / total
                         for tag, count in sorted(counts.items())}
    return out


def category_percentages(db: FailureDatabase,
                         manufacturers: list[str] | None = None,
                         ) -> dict[str, dict[str, float]]:
    """Table IV: percentage per root failure category.

    Columns: ``ML-Planner/Controller``, ``ML-Perception/Recognition``,
    ``System``, ``Unknown-C`` (percentages summing to ~100 per row).
    """
    names = manufacturers if manufacturers is not None \
        else db.manufacturers()
    out: dict[str, dict[str, float]] = {}
    for name in names:
        counts = {"ML-Planner/Controller": 0,
                  "ML-Perception/Recognition": 0,
                  "System": 0, "Unknown-C": 0}
        total = 0
        for tag in db.tag_values(name):
            total += 1
            category = category_of(tag)
            if category is FailureCategory.ML_DESIGN:
                sub = ml_subcategory_of(tag)
                if sub is MlSubcategory.PLANNER:
                    counts["ML-Planner/Controller"] += 1
                else:
                    counts["ML-Perception/Recognition"] += 1
            elif category is FailureCategory.SYSTEM:
                counts["System"] += 1
            else:
                counts["Unknown-C"] += 1
        if total:
            out[name] = {key: 100.0 * value / total
                         for key, value in counts.items()}
    return out


def overall_category_shares(db: FailureDatabase) -> dict[str, float]:
    """Headline shares across manufacturers (paper Sec. V-A2).

    :data:`SHARES_EXCLUDED` is left out, as in the paper.  Returns
    fractions for perception, planner, system, unknown, and the
    combined ML/Design share (the 64% claim).
    """
    counts = Counter()
    total = 0
    for record in db.disengagements:
        if record.manufacturer in SHARES_EXCLUDED:
            continue
        tag = record.tag
        if tag is None:
            continue
        total += 1
        category = category_of(tag)
        if category is FailureCategory.ML_DESIGN:
            sub = ml_subcategory_of(tag)
            key = ("planner" if sub is MlSubcategory.PLANNER
                   else "perception")
        elif category is FailureCategory.SYSTEM:
            key = "system"
        else:
            key = "unknown"
        counts[key] += 1
    if not total:
        return {}
    shares = {key: counts[key] / total
              for key in ("perception", "planner", "system", "unknown")}
    shares["ml_design"] = shares["perception"] + shares["planner"]
    return shares


def modality_percentages(db: FailureDatabase,
                         manufacturers: list[str] | None = None,
                         ) -> dict[str, dict[str, float]]:
    """Table V: percentage per modality (automatic/manual/planned)."""
    names = manufacturers if manufacturers is not None \
        else db.manufacturers()
    out: dict[str, dict[str, float]] = {}
    for name in names:
        counts = {modality: 0 for modality in Modality}
        total = 0
        for modality in db.modality_values(name):
            counts[modality] += 1
            total += 1
        if total:
            out[name] = {modality.value: 100.0 * count / total
                         for modality, count in counts.items()}
    return out


def automatic_share(db: FailureDatabase) -> float:
    """Average share of disengagements initiated automatically.

    The paper's ~48% is the unweighted average of the Table V
    automatic percentages across manufacturers ("note that this
    measurement is biased by manufacturers like Mercedes-Benz and
    Waymo that report a larger number of disengagements").
    """
    shares = [row[Modality.AUTOMATIC.value] / 100.0
              for row in modality_percentages(db).values()]
    return left_sum(shares) / len(shares) if shares else 0.0
