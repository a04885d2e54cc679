"""Descriptive statistics used across Stage IV."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InsufficientDataError


@dataclass(frozen=True)
class BoxplotStats:
    """The five-number summary drawn in the paper's box plots."""

    n: int
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    mean: float

    @property
    def iqr(self) -> float:
        """Interquartile range."""
        return self.q3 - self.q1

    def as_row(self) -> dict[str, float]:
        """Dictionary form for table rendering."""
        return {
            "n": self.n, "min": self.minimum, "q1": self.q1,
            "median": self.median, "q3": self.q3, "max": self.maximum,
            "mean": self.mean,
        }


def boxplot_stats(values: list[float] | np.ndarray) -> BoxplotStats:
    """Five-number summary of ``values``."""
    array = np.asarray(values, dtype=float)
    if array.size == 0:
        raise InsufficientDataError("no values to summarize")
    minimum = float(array.min())
    maximum = float(array.max())
    # Percentile interpolation can drift a few ULP outside [min, max]
    # at large magnitudes; clamp so the five-number ordering is exact.
    q1, median, q3 = (
        float(min(max(q, minimum), maximum))
        for q in np.percentile(array, [25, 50, 75]))
    return BoxplotStats(
        n=int(array.size),
        minimum=minimum,
        q1=q1,
        median=median,
        q3=q3,
        maximum=maximum,
        mean=float(min(max(array.mean(), minimum), maximum)),
    )


def describe(values: list[float] | np.ndarray) -> dict[str, float]:
    """Extended summary: five numbers plus spread and tail metrics."""
    array = np.asarray(values, dtype=float)
    if array.size == 0:
        raise InsufficientDataError("no values to describe")
    box = boxplot_stats(array)
    out = box.as_row()
    out["std"] = float(array.std(ddof=1)) if array.size > 1 else 0.0
    out["p95"] = float(np.percentile(array, 95))
    out["p99"] = float(np.percentile(array, 99))
    return out


def geometric_mean(values: list[float] | np.ndarray) -> float:
    """Geometric mean of strictly positive values."""
    array = np.asarray(values, dtype=float)
    if array.size == 0:
        raise InsufficientDataError("no values for geometric mean")
    if np.any(array <= 0):
        raise InsufficientDataError(
            "geometric mean requires positive values")
    return float(np.exp(np.mean(np.log(array))))
