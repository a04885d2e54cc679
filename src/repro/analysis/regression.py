"""Ordinary least-squares linear regression (with log-log variant).

Used for the Fig. 5 and Fig. 9 trend lines.  Implemented directly on
top of numpy rather than scipy so the fit exposes exactly what the
figures need (slope, intercept, r-squared, standard errors).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InsufficientDataError


@dataclass(frozen=True)
class LinearFit:
    """OLS fit of ``y = slope * x + intercept``."""

    slope: float
    intercept: float
    r_squared: float
    slope_stderr: float
    n: int


def fit_linear(x: list[float] | np.ndarray,
               y: list[float] | np.ndarray) -> LinearFit:
    """Least-squares line through ``(x, y)``."""
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.size != ya.size:
        raise InsufficientDataError(
            f"x and y lengths differ: {xa.size} vs {ya.size}")
    if xa.size < 2:
        raise InsufficientDataError("need at least 2 points to fit a line")
    if np.allclose(xa, xa[0]):
        raise InsufficientDataError("x values are all identical")
    x_mean, y_mean = xa.mean(), ya.mean()
    sxx = float(np.sum((xa - x_mean) ** 2))
    sxy = float(np.sum((xa - x_mean) * (ya - y_mean)))
    slope = sxy / sxx
    intercept = y_mean - slope * x_mean
    residuals = ya - (slope * xa + intercept)
    ss_res = float(np.sum(residuals ** 2))
    ss_tot = float(np.sum((ya - y_mean) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    dof = xa.size - 2
    if dof > 0 and sxx > 0:
        stderr = float(np.sqrt(ss_res / dof / sxx))
    else:
        stderr = 0.0
    return LinearFit(
        slope=float(slope), intercept=float(intercept),
        r_squared=float(r_squared), slope_stderr=stderr, n=int(xa.size))


def fit_loglog(x: list[float] | np.ndarray,
               y: list[float] | np.ndarray) -> LinearFit:
    """Fit ``log10(y) = slope * log10(x) + intercept``.

    Non-positive points are excluded (they have no logarithm); the fit
    describes the power-law exponent the paper's Figs. 5/9 report.
    """
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    mask = (xa > 0) & (ya > 0)
    if mask.sum() < 2:
        raise InsufficientDataError(
            "need at least 2 positive points for a log-log fit")
    return fit_linear(np.log10(xa[mask]), np.log10(ya[mask]))
