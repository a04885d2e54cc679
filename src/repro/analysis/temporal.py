"""Temporal trend analysis (Fig. 7 machinery).

Implements the trend statistics behind the paper's temporal claims: a
Mann-Kendall monotone-trend test over monthly DPM series (robust to
the non-normal rates) and the per-year median/variance evolution (the
paper observes medians improving while variance grows).
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from ..errors import InsufficientDataError
from ..pipeline.store import FailureDatabase
from .dpm import monthly_series, yearly_dpm_distributions
from .stats import median


@dataclass(frozen=True)
class TrendTest:
    """Mann-Kendall test result."""

    s_statistic: int
    z_score: float
    p_value: float
    n: int

    @property
    def direction(self) -> str:
        """"decreasing", "increasing", or "none"."""
        if self.s_statistic < 0:
            return "decreasing"
        if self.s_statistic > 0:
            return "increasing"
        return "none"

    def significant(self, alpha: float = 0.05) -> bool:
        """Whether the trend is significant at level ``alpha``."""
        return self.p_value < alpha


def mann_kendall(values: Iterable[float]) -> TrendTest:
    """Mann-Kendall monotone trend test (normal approximation with
    tie correction), in integer arithmetic up to the variance."""
    data = [float(value) for value in values]
    n = len(data)
    if n < 4:
        raise InsufficientDataError(
            f"need at least 4 observations, got {n}")
    ties = Counter(data)
    if (any(value != value for value in data)
            or ties[math.inf] > 1 or ties[-math.inf] > 1):
        raise ValueError(
            "a NaN or a repeated infinity has no trend sign")
    s = 0
    for i, earlier in enumerate(data):
        for later in data[i + 1:]:
            s += (later > earlier) - (later < earlier)
    tie_term = float(sum(count * (count - 1) * (2 * count + 5)
                         for count in ties.values()))
    variance = (n * (n - 1) * (2 * n + 5) - tie_term) / 18.0
    if variance <= 0:
        return TrendTest(s_statistic=s, z_score=0.0, p_value=1.0, n=n)
    if s > 0:
        z = (s - 1) / math.sqrt(variance)
    elif s < 0:
        z = (s + 1) / math.sqrt(variance)
    else:
        z = 0.0
    # Two-sided normal tail; erfc keeps it accurate where
    # 1 - cdf(|z|) would cancel to 0.
    p = math.erfc(abs(z) / math.sqrt(2.0))
    return TrendTest(s_statistic=s, z_score=z, p_value=p, n=n)


def dpm_trend_test(db: FailureDatabase,
                   manufacturer: str) -> TrendTest:
    """Mann-Kendall test over a manufacturer's monthly DPM series."""
    series = [p.dpm for p in monthly_series(db, manufacturer)
              if p.miles > 0]
    return mann_kendall(series)


@dataclass(frozen=True)
class YearlyEvolution:
    """Median and spread of DPM per year for one manufacturer."""

    manufacturer: str
    medians: dict[int, float]
    variances: dict[int, float]

    @property
    def median_improving(self) -> bool:
        """Whether the yearly median DPM falls over the window."""
        years = sorted(self.medians)
        return self.medians[years[-1]] < self.medians[years[0]]

    @property
    def improvement_factor(self) -> float:
        """First-year median over last-year median."""
        years = sorted(self.medians)
        last = self.medians[years[-1]]
        if last <= 0:
            return float("inf")
        return self.medians[years[0]] / last


def yearly_evolution(db: FailureDatabase,
                     manufacturer: str) -> YearlyEvolution:
    """Per-year DPM medians and variances for one manufacturer."""
    yearly = yearly_dpm_distributions(db, [manufacturer]).get(
        manufacturer)
    if not yearly:
        raise InsufficientDataError(
            f"{manufacturer}: no yearly DPM distributions")
    medians = {}
    variances = {}
    for year, values in yearly.items():
        medians[year] = median(values)
        variances[year] = (float(np.var(values, ddof=1))
                           if len(values) > 1 else 0.0)
    return YearlyEvolution(manufacturer=manufacturer,
                           medians=medians, variances=variances)
