"""Temporal trend analysis (Fig. 7 machinery).

Implements the trend statistic behind the paper's temporal claims: a
Mann-Kendall monotone-trend test over monthly DPM series (robust to
the non-normal rates).  The per-year medians of Fig. 7 come from
:func:`~repro.analysis.dpm.yearly_dpm_distributions`.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass

from ..errors import InsufficientDataError
from ..pipeline.store import FailureDatabase
from .dpm import monthly_series


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
