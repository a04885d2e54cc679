"""Cross-manufacturer comparisons with significance.

Fig. 4 compares DPM distributions visually; this module makes the
comparisons statistical: pairwise Mann-Whitney U tests over the
per-unit DPM samples, Cliff's delta effect sizes, and a ranking with
significance annotations ("Waymo does ~100x better" becomes a tested
claim).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InsufficientDataError
from ..pipeline.store import FailureDatabase
from .dpm import per_unit_dpm


@dataclass(frozen=True)
class PairwiseComparison:
    """One manufacturer-vs-manufacturer DPM comparison."""

    left: str
    right: str
    #: Mann-Whitney U two-sided p-value.
    p_value: float
    #: Cliff's delta in [-1, 1]; negative means ``left`` has lower
    #: DPM (is more reliable).
    cliffs_delta: float
    #: Ratio of median DPMs (left / right).
    median_ratio: float

    def significant(self, alpha: float = 0.05) -> bool:
        """Whether the distributions differ at level ``alpha``."""
        return self.p_value < alpha

    @property
    def effect(self) -> str:
        """Conventional effect-size label for |delta|."""
        magnitude = abs(self.cliffs_delta)
        if magnitude < 0.147:
            return "negligible"
        if magnitude < 0.33:
            return "small"
        if magnitude < 0.474:
            return "medium"
        return "large"


def cliffs_delta(left: list[float], right: list[float]) -> float:
    """Cliff's delta: P(L > R) - P(L < R) over all pairs."""
    if not left or not right:
        raise InsufficientDataError("both samples must be non-empty")
    left_array = np.asarray(left)[:, None]
    right_array = np.asarray(right)[None, :]
    greater = float(np.sum(left_array > right_array))
    less = float(np.sum(left_array < right_array))
    return (greater - less) / (len(left) * len(right))


def _dpm_samples(db: FailureDatabase, manufacturer: str,
                 minimum: int = 5) -> list[float]:
    """Per-unit DPM samples; small fleets fall back to monthly DPM
    (two cars give two per-car samples — not enough to test on)."""
    from .dpm import monthly_series

    _, dpm = per_unit_dpm(db, manufacturer)
    values = list(dpm.values())
    if len(values) < minimum:
        values = [p.dpm for p in monthly_series(db, manufacturer)
                  if p.miles > 0]
    return values


def compare_pair(db: FailureDatabase, left: str, right: str,
                 ) -> PairwiseComparison:
    """Compare two manufacturers' DPM distributions."""
    from scipy import stats as sstats

    left_values = _dpm_samples(db, left)
    right_values = _dpm_samples(db, right)
    if len(left_values) < 3 or len(right_values) < 3:
        raise InsufficientDataError(
            f"too few units: {left}={len(left_values)}, "
            f"{right}={len(right_values)}")
    test = sstats.mannwhitneyu(left_values, right_values,
                               alternative="two-sided")
    left_median = float(np.median(left_values))
    right_median = float(np.median(right_values))
    ratio = (left_median / right_median if right_median > 0
             else float("inf"))
    return PairwiseComparison(
        left=left, right=right,
        p_value=float(test.pvalue),
        cliffs_delta=cliffs_delta(left_values, right_values),
        median_ratio=ratio,
    )


def dominance_matrix(db: FailureDatabase,
                     manufacturers: list[str],
                     ) -> dict[tuple[str, str], PairwiseComparison]:
    """All pairwise comparisons among ``manufacturers``."""
    out = {}
    for i, left in enumerate(manufacturers):
        for right in manufacturers[i + 1:]:
            try:
                out[(left, right)] = compare_pair(db, left, right)
            except InsufficientDataError:
                continue
    return out


def reliability_ranking(db: FailureDatabase,
                        manufacturers: list[str],
                        alpha: float = 0.05,
                        ) -> list[tuple[str, float, int]]:
    """Manufacturers ranked by median DPM, with the number of
    significantly-worse competitors each one beats."""
    medians = {}
    for name in manufacturers:
        try:
            _, dpm = per_unit_dpm(db, name)
        except InsufficientDataError:
            continue
        if dpm:
            medians[name] = float(np.median(list(dpm.values())))
    matrix = dominance_matrix(db, list(medians))
    wins = {name: 0 for name in medians}
    for (left, right), comparison in matrix.items():
        if not comparison.significant(alpha):
            continue
        if comparison.cliffs_delta < 0:
            wins[left] += 1
        elif comparison.cliffs_delta > 0:
            wins[right] += 1
    return sorted(((name, median, wins[name])
                   for name, median in medians.items()),
                  key=lambda item: item[1])
