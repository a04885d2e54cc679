"""Stage II: parsing, filtering, and normalization of raw DMV reports.

This package turns heterogeneous, per-manufacturer raw report text (as
recovered by the OCR substrate) into canonical, uniformly-schematized
records suitable for NLP tagging and statistical analysis.
"""
