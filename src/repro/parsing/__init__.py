"""Stage II: parsing, filtering, and normalization of raw DMV reports.

This package turns heterogeneous, per-manufacturer raw report text (as
recovered by the OCR substrate) into canonical, uniformly-schematized
records suitable for NLP tagging and statistical analysis.
"""

from .records import (
    AccidentRecord,
    DisengagementRecord,
    MonthlyMileage,
    ParsedReport,
)
from .base import ParserRegistry, ReportParser, default_registry
from .normalize import normalize_records
from .filters import FilterStats, filter_records
from .accidents import parse_accident_report

__all__ = [
    "AccidentRecord",
    "DisengagementRecord",
    "MonthlyMileage",
    "ParsedReport",
    "ParserRegistry",
    "ReportParser",
    "default_registry",
    "normalize_records",
    "FilterStats",
    "filter_records",
    "parse_accident_report",
]
