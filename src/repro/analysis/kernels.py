"""Stage IV analyses packaged as query kernels.

Thin adapters only: each kernel is a named, zero-argument-beyond-the-
database callable that delegates to the existing :mod:`repro.analysis`
functions, or, for ``count`` and ``miles``, counts the slice's records
and adds its miles.  The query engine answers every ``(metric,
group_by)`` pair through :data:`KERNELS`, so a served answer is *the
same computation* as calling the analysis module directly — never a
re-implementation of the math (the golden parity tests compare the
two byte-for-byte).
"""

from __future__ import annotations

from collections import Counter
from operator import attrgetter
from typing import Any, Callable

from ..errors import InsufficientDataError
from ..parsing.records import DisengagementRecord
from ..pipeline.store import FailureDatabase
from ..taxonomy import TAG_CATEGORY
from .apm import (
    accident_summary,
    apm_summary,
    disengagements_per_accident_overall,
)
from .categories import (
    category_percentages,
    modality_percentages,
    tag_fractions,
)
from .dpm import (
    manufacturer_dpm_summary,
    monthly_series,
    yearly_dpm_distributions,
)
from .temporal import dpm_trend_test

Kernel = Callable[[FailureDatabase], Any]


def _count(db: FailureDatabase) -> dict[str, int]:
    """Record counts of the slice."""
    return {
        "disengagements": len(db.disengagements),
        "accidents": len(db.accidents),
        "mileage_cells": len(db.mileage),
        "manufacturers": len(db.manufacturers()),
    }


def _count_by(key: Callable[[DisengagementRecord], str | None]) -> Kernel:
    """A kernel counting the slice's disengagements per ``key``, keys
    sorted; a record whose key is ``None`` (an untagged one, for the
    tag and category groupings) is not counted."""

    def count(db: FailureDatabase) -> dict[str, int]:
        counts = Counter(key(record) for record in db.disengagements)
        counts.pop(None, None)
        return dict(sorted(counts.items()))

    return count


def _tag_of(record: DisengagementRecord) -> str | None:
    return None if record.tag is None else record.tag.value


def _category_of(record: DisengagementRecord) -> str | None:
    return None if record.tag is None else TAG_CATEGORY[record.tag].value


def _total_miles(db: FailureDatabase) -> float:
    """Autonomous miles of the slice, added in slice order."""
    return db.total_miles


def _miles_by_manufacturer(db: FailureDatabase) -> dict[str, float]:
    """Manufacturer -> miles; one without mileage cells is left out."""
    return dict(sorted(db.miles_by_manufacturer().items()))


def _miles_by_month(db: FailureDatabase) -> dict[str, float]:
    """Month -> miles over every manufacturer, added in slice order."""
    totals: dict[str, float] = {}
    for cell in db.mileage:
        totals[cell.month] = totals.get(cell.month, 0.0) + cell.miles
    return dict(sorted(totals.items()))


def _dpm_by_month(db: FailureDatabase) -> dict[str, list]:
    """Manufacturer -> month-by-month DPM series."""
    return {name: monthly_series(db, name)
            for name in db.manufacturers()}


def _dpa_overall(db: FailureDatabase) -> float:
    """Total disengagements over total accidents (the ~127 figure)."""
    return disengagements_per_accident_overall(db)


def _trend_by_manufacturer(db: FailureDatabase) -> dict[str, Any]:
    """Manufacturer -> Mann-Kendall DPM trend test.

    Manufacturers with too few active months for the test (fewer than
    4 observations) are omitted rather than failing the whole query.
    """
    out: dict[str, Any] = {}
    for name in db.manufacturers():
        try:
            out[name] = dpm_trend_test(db, name)
        except InsufficientDataError:
            continue
    return out


#: ``(metric, group_by)`` -> the Stage IV computation serving it.
KERNELS: dict[tuple[str, str | None], Kernel] = {
    ("count", None): _count,
    ("count", "manufacturer"): _count_by(attrgetter("manufacturer")),
    ("count", "month"): _count_by(attrgetter("month")),
    ("count", "tag"): _count_by(_tag_of),
    ("count", "category"): _count_by(_category_of),
    ("miles", None): _total_miles,
    ("miles", "manufacturer"): _miles_by_manufacturer,
    ("miles", "month"): _miles_by_month,
    ("dpm", "manufacturer"): manufacturer_dpm_summary,
    ("dpm", "month"): _dpm_by_month,
    ("dpm", "year"): yearly_dpm_distributions,
    ("apm", "manufacturer"): apm_summary,
    ("dpa", "manufacturer"): accident_summary,
    ("dpa", None): _dpa_overall,
    ("tags", "manufacturer"): tag_fractions,
    ("categories", "manufacturer"): category_percentages,
    ("modalities", "manufacturer"): modality_percentages,
    ("trend", "manufacturer"): _trend_by_manufacturer,
}
