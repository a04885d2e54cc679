"""Descriptive statistics used across Stage IV.

Box plots, medians and means are computed in plain Python, operation
for operation as numpy computes them, so every result is bit-identical
to ``np.percentile``/``np.median``/``np.mean`` on the same values (the
numpy forms live on in ``tests/oracles.py`` as parity references).
They run on every ``/v1`` ``dpm``, ``apm`` and ``trend`` answer, over a
few dozen values each; calling numpy there would import ``numpy.ma``
and fault in numpy's compiled kernels in every serving process.

Floats are only ever added left to right with ``operator.add``:
Python 3.12's ``sum()`` compensates its rounding, so it would give
other bits than numpy, and other bits on 3.12 than on 3.10.  Every
other float total of Stage IV, the query layer and the store goes
through :func:`left_sum` for the same reason
(``tests/test_float_sums.py`` fails on a builtin ``sum()`` there).
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from functools import reduce
from operator import add

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


def left_sum(values: Iterable[float]) -> float:
    """``values`` added left to right, starting from the int ``0``.

    The builtin ``sum()`` of Python 3.10 and 3.11, bit for bit, on
    every Python (3.12's compensates its rounding); an empty input
    gives the int ``0``, as ``sum()`` does.
    """
    return reduce(add, values, 0)


def _pairwise_sum(values: list[float]) -> float:
    """numpy's pairwise summation of a float64 array.

    Below 8 values they are added in order; up to 128, eight running
    accumulators take every eighth value and are combined as a tree,
    then the tail is added; above that, the values are split at half
    their count rounded down to a multiple of 8.
    """
    n = len(values)
    if n < 8:
        return reduce(add, values, 0.0)
    if n <= 128:
        body = n - n % 8
        r = [reduce(add, values[lane:body:8]) for lane in range(8)]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5])
                                                   + (r[6] + r[7]))
        return reduce(add, values[body:], total)
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])


def _mean(values: list[float]) -> float:
    # np.add.reduce adds the pairwise sum to its identity 0.0, so an
    # all -0.0 input sums to 0.0.
    return (0.0 + _pairwise_sum(values)) / len(values)


def _floats(values: Iterable[float], what: str) -> list[float]:
    data = [float(value) for value in values]
    if not data:
        raise InsufficientDataError(f"no values {what}")
    return data


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean, as ``np.mean``."""
    return _mean(_floats(values, "to average"))


def median(values: Iterable[float]) -> float:
    """Median, as ``np.median``: the middle value, or the mean of the
    middle two."""
    data = _floats(values, "for a median")
    if any(value != value for value in data):
        return math.nan
    ordered = sorted(data)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return _mean(ordered[middle:middle + 1])
    return _mean(ordered[middle - 1:middle + 1])


def _percentile(ordered: list[float], fraction: float) -> float:
    """numpy's ``linear`` percentile of sorted values."""
    position = (len(ordered) - 1) * fraction
    if len(ordered) == 1:
        # numpy pins both neighbours to the last value, with weight 1.
        lower = upper = ordered[0]
        weight = 1.0
    else:
        below = int(position)
        lower, upper = ordered[below], ordered[below + 1]
        weight = position - below
    step = upper - lower
    if weight >= 0.5:
        return upper - step * (1 - weight)
    return lower + step * weight


def boxplot_stats(values: Iterable[float]) -> BoxplotStats:
    """Five-number summary of ``values`` (a list or a 1-D array)."""
    data = _floats(values, "to summarize")
    if any(value != value for value in data):
        # numpy sorts NaN last, and every statistic comes out NaN.
        return BoxplotStats(len(data), *[math.nan] * 6)
    ordered = sorted(data)
    minimum, maximum = ordered[0], ordered[-1]
    # Percentile interpolation can drift a few ULP outside [min, max]
    # at large magnitudes; clamp so the five-number ordering is exact.
    q1, middle, q3 = (min(max(_percentile(ordered, q), minimum), maximum)
                      for q in (0.25, 0.5, 0.75))
    return BoxplotStats(
        n=len(data),
        minimum=minimum,
        q1=q1,
        median=middle,
        q3=q3,
        maximum=maximum,
        mean=min(max(_mean(data), minimum), maximum),
    )
