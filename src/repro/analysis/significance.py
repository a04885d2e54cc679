"""Reliability-demonstration arithmetic (Kalra-Paddock, ref. [36]).

The paper uses [36] to test statistical significance of its accident
rates.  Kalra & Paddock model failures as a Poisson process in miles:

* How many failure-free miles demonstrate a rate below ``r`` with
  confidence ``C``?  ``miles = -ln(1 - C) / r``.
* Given ``m`` miles with ``k`` failures, the one-sided upper
  confidence bound on the rate is ``chi2.ppf(C, 2k + 2) / (2 m)``.

``C`` is :data:`CONFIDENCE`, as in [36].
"""

from __future__ import annotations

import math

from ..errors import AnalysisError

#: The confidence level of both bounds.
CONFIDENCE = 0.95


def miles_to_demonstrate(rate_per_mile: float) -> float:
    """Failure-free miles needed to show the rate is below the bound.

    For the paper's human benchmark (2e-6 accidents/mile, 95%
    confidence) this is the famous ~1.5 million failure-free miles.
    """
    if rate_per_mile <= 0:
        raise AnalysisError("rate must be positive")
    return -math.log(1.0 - CONFIDENCE) / rate_per_mile


def rate_upper_bound(miles: float, failures: int) -> float:
    """One-sided upper confidence bound on the per-mile failure rate."""
    from scipy import stats as sstats

    if miles <= 0:
        raise AnalysisError("miles must be positive")
    if failures < 0:
        raise AnalysisError("failures must be non-negative")
    return float(sstats.chi2.ppf(CONFIDENCE, 2 * failures + 2)
                 / (2.0 * miles))


def failure_rate_confidence(miles: float, failures: int,
                            rate_per_mile: float) -> float:
    """Confidence that the true rate *exceeds* ``rate_per_mile``.

    This is the significance check the paper applies to its APM
    estimates ("made at > 90% significance" for Waymo and GMCruise).
    Under a Poisson failure process with the reference rate, the
    one-sided p-value of observing at least ``failures`` events is
    ``P(X >= k | lambda)``; the returned confidence is its complement
    ``P(X < k | lambda)``.
    """
    from scipy import stats as sstats

    if miles <= 0 or rate_per_mile <= 0:
        raise AnalysisError("miles and rate must be positive")
    if failures < 0:
        raise AnalysisError("failures must be non-negative")
    if failures == 0:
        return 0.0
    expected = rate_per_mile * miles
    return float(sstats.poisson.cdf(failures - 1, expected))
