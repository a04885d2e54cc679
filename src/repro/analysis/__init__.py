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
