"""DPM forecasting and backtesting (Question 3 made predictive).

The paper's Fig. 9 fits ``log DPM ~ log cumulative miles`` and argues
manufacturers keep improving.  If that model is right, it should
*predict*: train it on a prefix of a manufacturer's months, extrapolate
the disengagement counts for the remaining months from their (known)
mileage, and compare against what actually happened.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InsufficientDataError
from ..pipeline.store import FailureDatabase
from .dpm import MonthlyPoint, monthly_series
from .regression import LinearFit, fit_loglog


@dataclass(frozen=True)
class DpmForecast:
    """A trained power-law DPM model and its holdout evaluation."""

    manufacturer: str
    fit: LinearFit
    train_months: int
    test_months: int
    #: Predicted and actual disengagement counts on the holdout.
    predicted: tuple[float, ...]
    actual: tuple[int, ...]

    @property
    def predicted_total(self) -> float:
        """Total predicted holdout disengagements."""
        return float(sum(self.predicted))

    @property
    def actual_total(self) -> int:
        """Total actual holdout disengagements."""
        return int(sum(self.actual))

    @property
    def total_error(self) -> float:
        """|predicted - actual| / actual over the holdout total."""
        if self.actual_total == 0:
            return float("inf") if self.predicted_total > 0 else 0.0
        return abs(self.predicted_total
                   - self.actual_total) / self.actual_total


def predict_dpm(fit: LinearFit, cumulative_miles: float) -> float:
    """DPM predicted by a log-log fit at a cumulative mileage."""
    if cumulative_miles <= 0:
        raise InsufficientDataError(
            "cumulative miles must be positive")
    return float(10 ** fit.predict(np.log10(cumulative_miles)))


def _split(series: list[MonthlyPoint], train_fraction: float,
           ) -> tuple[list[MonthlyPoint], list[MonthlyPoint]]:
    active = [p for p in series if p.miles > 0]
    if len(active) < 6:
        raise InsufficientDataError(
            f"need at least 6 active months, got {len(active)}")
    if not 0.0 < train_fraction < 1.0:
        raise InsufficientDataError(
            f"train fraction {train_fraction} outside (0, 1)")
    cut = max(3, int(len(active) * train_fraction))
    if cut >= len(active):
        raise InsufficientDataError("no holdout months left")
    return active[:cut], active[cut:]


def backtest(db: FailureDatabase, manufacturer: str,
             train_fraction: float = 0.6) -> DpmForecast:
    """Train on a month prefix; evaluate count predictions on the
    rest."""
    series = monthly_series(db, manufacturer)
    train, test = _split(series, train_fraction)
    pairs = [(p.cumulative_miles, p.dpm) for p in train if p.dpm > 0]
    if len(pairs) < 3:
        raise InsufficientDataError(
            f"{manufacturer}: too few positive training months")
    fit = fit_loglog([p[0] for p in pairs], [p[1] for p in pairs])
    predicted = tuple(
        predict_dpm(fit, point.cumulative_miles) * point.miles
        for point in test)
    actual = tuple(point.disengagements for point in test)
    return DpmForecast(
        manufacturer=manufacturer,
        fit=fit,
        train_months=len(train),
        test_months=len(test),
        predicted=predicted,
        actual=actual,
    )


def backtest_all(db: FailureDatabase,
                 manufacturers: list[str] | None = None,
                 train_fraction: float = 0.6,
                 ) -> dict[str, DpmForecast]:
    """Backtest every manufacturer with enough history."""
    names = manufacturers if manufacturers is not None \
        else db.manufacturers()
    out = {}
    for name in names:
        try:
            out[name] = backtest(db, name, train_fraction)
        except InsufficientDataError:
            continue
    return out
