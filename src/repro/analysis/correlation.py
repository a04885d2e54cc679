"""Pearson correlation with significance testing.

Used for the paper's headline r = -0.87 (p = 7e-56) between log(DPM)
and log(cumulative miles), and the reaction-time-vs-miles
correlations of Section V-A4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InsufficientDataError


@dataclass(frozen=True)
class CorrelationResult:
    """A Pearson correlation and its two-sided p-value."""

    r: float
    p_value: float
    n: int

    def significant(self, alpha: float = 0.01) -> bool:
        """Whether the correlation is significant at level ``alpha``."""
        return self.p_value < alpha


def pearson(x: list[float] | np.ndarray,
            y: list[float] | np.ndarray) -> CorrelationResult:
    """Pearson correlation of ``(x, y)`` with its p-value."""
    from scipy import stats as sstats

    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.size != ya.size:
        raise InsufficientDataError(
            f"x and y lengths differ: {xa.size} vs {ya.size}")
    if xa.size < 3:
        raise InsufficientDataError(
            "need at least 3 points for a correlation test")
    if np.allclose(xa, xa[0]) or np.allclose(ya, ya[0]):
        raise InsufficientDataError("a variable is constant")
    result = sstats.pearsonr(xa, ya)
    return CorrelationResult(
        r=float(result.statistic), p_value=float(result.pvalue),
        n=int(xa.size))


def log_pearson(x: list[float] | np.ndarray,
                y: list[float] | np.ndarray) -> CorrelationResult:
    """Pearson correlation of ``(log10 x, log10 y)``, positive pairs only."""
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    mask = (xa > 0) & (ya > 0)
    if mask.sum() < 3:
        raise InsufficientDataError(
            "need at least 3 positive points for a log correlation")
    return pearson(np.log10(xa[mask]), np.log10(ya[mask]))
