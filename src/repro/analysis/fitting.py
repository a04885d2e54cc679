"""Distribution fitting: exponentiated Weibull and exponential MLE.

Fig. 11 fits reaction times with an exponentiated Weibull; Fig. 12
fits collision speeds with exponentials.  Fits report a
Kolmogorov-Smirnov statistic as the goodness-of-fit measure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InsufficientDataError


@dataclass(frozen=True)
class ExponWeibullFit:
    """MLE fit of the exponentiated Weibull distribution."""

    a: float          # exponentiation shape
    c: float          # Weibull shape
    scale: float
    ks_statistic: float
    n: int

    def pdf(self, x: float | np.ndarray) -> np.ndarray:
        """Density at ``x``."""
        from scipy import stats as sstats

        return sstats.exponweib.pdf(
            np.asarray(x, dtype=float), self.a, self.c, loc=0.0,
            scale=self.scale)

    @property
    def mean(self) -> float:
        """Mean of the fitted distribution."""
        from scipy import stats as sstats

        return float(sstats.exponweib.mean(
            self.a, self.c, loc=0.0, scale=self.scale))

    @property
    def median(self) -> float:
        """Median of the fitted distribution."""
        from scipy import stats as sstats

        return float(sstats.exponweib.median(
            self.a, self.c, loc=0.0, scale=self.scale))


@dataclass(frozen=True)
class ExponentialFit:
    """MLE fit of the exponential distribution (loc fixed at 0)."""

    scale: float
    ks_statistic: float
    n: int

    def pdf(self, x: float | np.ndarray) -> np.ndarray:
        """Density at ``x``."""
        from scipy import stats as sstats

        return sstats.expon.pdf(
            np.asarray(x, dtype=float), loc=0.0, scale=self.scale)

    @property
    def mean(self) -> float:
        """Mean of the fitted distribution (equals the scale)."""
        return self.scale

    def cdf(self, x: float) -> float:
        """P(X <= x) under the fit."""
        from scipy import stats as sstats

        return float(sstats.expon.cdf(x, loc=0.0, scale=self.scale))


def fit_exponweibull(values: list[float] | np.ndarray,
                     trim_above: float | None = None) -> ExponWeibullFit:
    """Fit an exponentiated Weibull to positive ``values``.

    ``trim_above`` excludes implausible outliers before fitting — the
    paper excludes Volkswagen's ~4-hour reaction time from its fits.
    """
    from scipy import stats as sstats

    array = np.asarray(values, dtype=float)
    array = array[array > 0]
    if trim_above is not None:
        array = array[array <= trim_above]
    if array.size < 8:
        raise InsufficientDataError(
            f"need at least 8 positive values to fit, got {array.size}")
    a, c, _, scale = sstats.exponweib.fit(array, floc=0.0)
    ks = sstats.kstest(
        array, "exponweib", args=(a, c, 0.0, scale)).statistic
    return ExponWeibullFit(
        a=float(a), c=float(c), scale=float(scale),
        ks_statistic=float(ks), n=int(array.size))


def fit_exponential(values: list[float] | np.ndarray) -> ExponentialFit:
    """Fit an exponential distribution to non-negative ``values``."""
    from scipy import stats as sstats

    array = np.asarray(values, dtype=float)
    array = array[array >= 0]
    if array.size < 3:
        raise InsufficientDataError(
            f"need at least 3 values to fit, got {array.size}")
    scale = float(array.mean())
    if scale <= 0:
        raise InsufficientDataError("all values are zero")
    ks = sstats.kstest(array, "expon", args=(0.0, scale)).statistic
    return ExponentialFit(
        scale=scale, ks_statistic=float(ks), n=int(array.size))


def histogram_density(values: list[float] | np.ndarray,
                      bins: int = 12) -> tuple[np.ndarray, np.ndarray]:
    """Empirical density histogram (bin centers, densities).

    The data series plotted alongside the fits in Figs. 11-12.
    """
    array = np.asarray(values, dtype=float)
    if array.size == 0:
        raise InsufficientDataError("no values to histogram")
    densities, edges = np.histogram(array, bins=bins, density=True)
    centers = (edges[:-1] + edges[1:]) / 2.0
    return centers, densities
