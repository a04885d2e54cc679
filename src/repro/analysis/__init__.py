"""Stage IV: statistical analysis of the consolidated failure data.

One module per family of analyses in Section V:

* :mod:`~repro.analysis.stats` — descriptive statistics (boxplots).
* :mod:`~repro.analysis.regression` — linear / log-log fits.
* :mod:`~repro.analysis.correlation` — Pearson correlation with p-values.
* :mod:`~repro.analysis.fitting` — Weibull / exponential MLE fits.
* :mod:`~repro.analysis.dpm` — disengagements per mile (Q1, Q3; Figs. 4-9).
* :mod:`~repro.analysis.categories` — fault categorization (Q2; Tables IV-V, Fig. 6).
* :mod:`~repro.analysis.alertness` — driver reaction times (Q4; Figs. 10-11).
* :mod:`~repro.analysis.apm` — accidents per mile (Q5; Tables VI-VII, Fig. 12).
* :mod:`~repro.analysis.missions` — per-mission comparison (Table VIII).
* :mod:`~repro.analysis.maturity` — burn-in assessment (Q1/Q3).
* :mod:`~repro.analysis.significance` — Kalra-Paddock reliability-demonstration model.
"""

from .stats import BoxplotStats, boxplot_stats
from .regression import LinearFit, fit_linear, fit_loglog
from .correlation import CorrelationResult, pearson
from .fitting import (
    ExponentialFit,
    ExponWeibullFit,
    fit_exponential,
    fit_exponweibull,
)
from .dpm import (
    DpmSummary,
    manufacturer_dpm_summary,
    monthly_series,
    per_unit_dpm,
    yearly_dpm_distributions,
)
from .categories import (
    category_percentages,
    modality_percentages,
    tag_fractions,
)
from .alertness import AlertnessSummary, alertness_summary, reaction_time_mileage_correlation
from .apm import ApmSummary, accident_summary, apm_summary
from .missions import MissionComparison, mission_comparison
from .maturity import MaturityAssessment, assess_maturity, pooled_dpm_correlation
from .significance import miles_to_demonstrate, failure_rate_confidence

__all__ = [
    "BoxplotStats", "boxplot_stats",
    "LinearFit", "fit_linear", "fit_loglog",
    "CorrelationResult", "pearson",
    "ExponentialFit", "ExponWeibullFit",
    "fit_exponential", "fit_exponweibull",
    "DpmSummary", "manufacturer_dpm_summary", "monthly_series",
    "per_unit_dpm", "yearly_dpm_distributions",
    "category_percentages", "modality_percentages", "tag_fractions",
    "AlertnessSummary", "alertness_summary",
    "reaction_time_mileage_correlation",
    "ApmSummary", "accident_summary", "apm_summary",
    "MissionComparison", "mission_comparison",
    "MaturityAssessment", "assess_maturity", "pooled_dpm_correlation",
    "miles_to_demonstrate", "failure_rate_confidence",
]
