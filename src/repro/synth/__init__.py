"""Calibrated synthetic CA DMV corpus generator (Stage I substitute).

The paper's raw inputs are scanned DMV report PDFs, which are not
redistributable.  This package synthesizes a corpus with the same
structure and the same per-manufacturer marginals the paper publishes
(Tables I, IV-VIII; Figs. 4-12): fleet rosters, monthly mileage,
disengagement events with natural-language cause narratives, and
accident reports — rendered into the same kind of heterogeneous raw
report documents the real pipeline had to parse.
"""
