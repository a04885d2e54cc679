"""The pure-Python Stage IV statistics against their numpy forms.

``boxplot_stats``, ``median``, ``mean`` and ``mann_kendall`` repeat
numpy's operations one for one, so each result must equal the numpy
reference in ``tests/oracles.py`` field by field, down to the bit
pattern.  Two kinds of value are compared by value instead:

* NaN, whose payload and sign follow the order in which the compiler
  emitted numpy's additions;
* a zero field of a box plot whose input holds both 0.0 and -0.0.  The
  two compare equal, and ``ndarray.min`` and ``np.percentile``'s
  selection (introselect, or a SIMD partition on AVX2/AVX-512
  machines) pick among equal values in an order of their own, where a
  stable sort keeps input order.  Served DPM values are quotients of
  non-negative counts, so they never hold -0.0.
"""

from __future__ import annotations

import dataclasses
import math
import random
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import boxplot_stats, mean, median
from repro.analysis.temporal import mann_kendall
from repro.errors import InsufficientDataError

from .oracles import (
    boxplot_reference,
    mann_kendall_reference,
    mean_reference,
    median_reference,
)

_FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e-300, -1e-300, 1e300, -1e300, 1.0, -2.5]))
_SPECIAL = st.sampled_from([math.nan, math.inf, -math.inf])


@st.composite
def _samples(draw, special: bool = False, sizes=None):
    """A list, an int list or an array, drawn from a small pool so that
    values repeat, or spread over the pool's magnitudes."""
    pool = draw(st.lists(_FINITE, min_size=1, max_size=10))
    if special:
        pool += draw(st.lists(_SPECIAL, min_size=1, max_size=3))
    if sizes is None:
        sizes = st.one_of(st.integers(1, 10), st.integers(1, 140),
                          st.integers(129, 3200))
    n = draw(sizes)
    rng = random.Random(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        values = rng.choices(pool, k=n)
    else:
        values = [rng.choice(pool) * rng.uniform(-1.0, 1.0)
                  for _ in range(n)]
    form = draw(st.sampled_from(["list", "array", "int"]))
    if form == "int":
        return [int(v) if math.isfinite(v) else rng.randint(-9, 2**70)
                for v in values]
    return np.array(values) if form == "array" else values


def _key(value: float) -> bytes | str:
    return "nan" if value != value else struct.pack("<d", value)


def _outcome(function, values):
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        try:
            return function(values)
        except (ArithmeticError, ValueError, InsufficientDataError) as exc:
            return type(exc)


def _assert_same(got, want, values) -> None:
    if isinstance(want, type):
        assert got is want
        return
    assert type(got) is type(want)
    floats = [float(v) for v in values]
    zeros = {math.copysign(1.0, v) for v in floats if v == 0.0}
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert type(a) is type(b), field.name
        if len(zeros) == 2 and isinstance(a, float) and a == 0.0:
            assert b == 0.0, field.name
        else:
            assert _key(a) == _key(b), (field.name, a, b)


class TestBoxplotParity:
    @settings(max_examples=400, deadline=None)
    @given(values=_samples())
    def test_bit_identical_to_numpy(self, values):
        _assert_same(_outcome(boxplot_stats, values),
                     _outcome(boxplot_reference, values), values)

    @settings(max_examples=200, deadline=None)
    @given(values=_samples(special=True))
    def test_nan_and_infinity_as_numpy(self, values):
        _assert_same(_outcome(boxplot_stats, values),
                     _outcome(boxplot_reference, values), values)

    @pytest.mark.parametrize("values", [
        [0.0], [-0.0], [5e-324], [math.inf], [-math.inf], [math.nan],
        [1.0, math.inf], [-math.inf, math.inf], [1e308, 1e308, -1e308],
        list(range(129)), [2**53 + 1] * 3, np.arange(300.0)[::-1],
    ], ids=["zero", "negative-zero", "subnormal", "inf", "-inf", "nan",
            "finite-inf", "-inf-inf", "overflowing-sum", "129-ints",
            "rounded-int", "descending-array"])
    def test_edges(self, values):
        _assert_same(_outcome(boxplot_stats, values),
                     _outcome(boxplot_reference, values), values)

    def test_empty_and_huge_ints_raise_as_numpy(self):
        for values in ([], np.array([]), [10**400]):
            assert (_outcome(boxplot_stats, values)
                    is _outcome(boxplot_reference, values))


class TestMedianMeanParity:
    @settings(max_examples=300, deadline=None)
    @given(values=_samples())
    def test_bit_identical_to_numpy(self, values):
        with np.errstate(all="ignore"):
            medians = median_reference(values), mean_reference(values)
        assert _key(median(values)) == _key(medians[0])
        assert _key(mean(values)) == _key(medians[1])

    @settings(max_examples=200, deadline=None)
    @given(values=_samples(special=True))
    def test_nan_and_infinity_as_numpy(self, values):
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            medians = median_reference(values), mean_reference(values)
        assert _key(median(values)) == _key(medians[0])
        assert _key(mean(values)) == _key(medians[1])

    def test_signed_zeros_sum_to_zero(self):
        assert _key(mean([-0.0] * 9)) == _key(0.0) == _key(
            mean_reference([-0.0] * 9))
        assert _key(median([-0.0])) == _key(median_reference([-0.0]))


class TestMannKendallParity:
    @settings(max_examples=300, deadline=None)
    @given(values=_samples(sizes=st.integers(1, 80)))
    def test_identical_to_numpy(self, values):
        _assert_same(_outcome(mann_kendall, values),
                     _outcome(mann_kendall_reference, values), values)

    @settings(max_examples=200, deadline=None)
    @given(values=_samples(special=True, sizes=st.integers(1, 40)))
    def test_nan_and_infinity_as_numpy(self, values):
        _assert_same(_outcome(mann_kendall, values),
                     _outcome(mann_kendall_reference, values), values)

    def test_statistic_is_an_int(self):
        result = mann_kendall(np.array([3.0, 1.0, 2.0, 5.0, 4.0]))
        assert type(result.s_statistic) is int
        assert result == mann_kendall_reference([3.0, 1.0, 2.0, 5.0, 4.0])
