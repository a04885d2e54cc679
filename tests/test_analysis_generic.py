"""Tests for the generic statistics: boxplots, regression,
correlation, and distribution fits."""

import numpy as np
import pytest

from repro.analysis.correlation import log_pearson, pearson
from repro.analysis.fitting import (
    fit_exponential,
    fit_exponweibull,
    histogram_density,
)
from repro.analysis.regression import fit_linear, fit_loglog
from repro.analysis.stats import boxplot_stats
from repro.errors import InsufficientDataError


class TestBoxplotStats:
    def test_five_numbers(self):
        box = boxplot_stats([1, 2, 3, 4, 5])
        assert box.minimum == 1
        assert box.median == 3
        assert box.maximum == 5
        assert box.mean == 3
        assert box.n == 5

    def test_quartiles(self):
        box = boxplot_stats(list(range(101)))
        assert box.q1 == 25
        assert box.q3 == 75
        assert box.iqr == 50

    def test_single_value(self):
        box = boxplot_stats([7.0])
        assert box.median == 7.0
        assert box.iqr == 0.0

    def test_empty_raises(self):
        with pytest.raises(InsufficientDataError):
            boxplot_stats([])


class TestLinearFit:
    def test_exact_line(self):
        fit = fit_linear([0, 1, 2, 3], [1, 3, 5, 7])
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(1.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_noisy_line(self):
        rng = np.random.default_rng(0)
        x = np.linspace(0, 10, 200)
        y = 3 * x - 2 + rng.normal(0, 0.5, 200)
        fit = fit_linear(x, y)
        assert fit.slope == pytest.approx(3.0, abs=0.1)
        assert fit.intercept == pytest.approx(-2.0, abs=0.3)
        assert fit.r_squared > 0.95
        assert fit.slope_stderr > 0

    def test_predict(self):
        fit = fit_linear([0, 1], [0, 2])
        assert fit.predict(3.0) == pytest.approx(6.0)

    def test_too_few_points(self):
        with pytest.raises(InsufficientDataError):
            fit_linear([1], [1])

    def test_constant_x(self):
        with pytest.raises(InsufficientDataError):
            fit_linear([2, 2, 2], [1, 2, 3])

    def test_length_mismatch(self):
        with pytest.raises(InsufficientDataError):
            fit_linear([1, 2], [1])


class TestLogLogFit:
    def test_power_law_recovered(self):
        x = np.array([1e2, 1e3, 1e4, 1e5])
        y = 5.0 * x ** -0.5
        fit = fit_loglog(x, y)
        assert fit.slope == pytest.approx(-0.5, abs=1e-9)

    def test_nonpositive_points_excluded(self):
        fit = fit_loglog([1, 10, 100, -5], [1, 10, 100, 3])
        assert fit.n == 3

    def test_all_nonpositive_raises(self):
        with pytest.raises(InsufficientDataError):
            fit_loglog([-1, -2], [1, 2])


class TestPearson:
    def test_perfect_correlation(self):
        result = pearson([1, 2, 3, 4], [2, 4, 6, 8])
        assert result.r == pytest.approx(1.0)
        assert result.p_value < 0.01

    def test_anticorrelation(self):
        result = pearson([1, 2, 3, 4], [8, 6, 4, 2])
        assert result.r == pytest.approx(-1.0)

    def test_significance_helper(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=500)
        y = x + rng.normal(scale=0.3, size=500)
        result = pearson(x, y)
        assert result.significant(0.01)

    def test_independent_data_not_significant(self):
        rng = np.random.default_rng(2)
        result = pearson(rng.normal(size=50), rng.normal(size=50))
        assert abs(result.r) < 0.4

    def test_constant_input_raises(self):
        with pytest.raises(InsufficientDataError):
            pearson([1, 1, 1], [1, 2, 3])

    def test_log_pearson_filters_nonpositive(self):
        result = log_pearson([1, 10, 100, -1], [2, 20, 200, 5])
        assert result.n == 3
        assert result.r == pytest.approx(1.0)


class TestFits:
    def test_exponential_fit_recovers_scale(self):
        rng = np.random.default_rng(3)
        data = rng.exponential(5.0, size=3000)
        fit = fit_exponential(data)
        assert fit.scale == pytest.approx(5.0, rel=0.1)
        assert fit.ks_statistic < 0.05
        assert fit.cdf(10.0) == pytest.approx(
            1 - np.exp(-10 / fit.scale), rel=1e-6)

    def test_exponential_pdf_integrates_to_one(self):
        fit = fit_exponential([1.0, 2.0, 3.0])
        x = np.linspace(0, 100, 20000)
        integral = np.trapezoid(fit.pdf(x), x)
        assert integral == pytest.approx(1.0, abs=1e-3)

    def test_exponweibull_fit(self):
        from scipy import stats as sstats
        rng = np.random.default_rng(4)
        data = sstats.exponweib.rvs(1.3, 1.5, scale=0.8, size=2000,
                                    random_state=rng)
        fit = fit_exponweibull(data)
        assert fit.mean == pytest.approx(float(np.mean(data)), rel=0.1)
        assert fit.ks_statistic < 0.05

    def test_exponweibull_trims_outliers(self):
        data = [0.5] * 20 + [14280.0]
        fit = fit_exponweibull(data, trim_above=600.0)
        assert fit.n == 20

    def test_exponweibull_too_few_values(self):
        with pytest.raises(InsufficientDataError):
            fit_exponweibull([1.0, 2.0])

    def test_histogram_density(self):
        centers, densities = histogram_density([1, 2, 3, 4, 5], bins=5)
        assert len(centers) == len(densities) == 5
        widths = centers[1] - centers[0]
        assert np.sum(densities) * widths == pytest.approx(1.0)
