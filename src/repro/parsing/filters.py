"""Filtering rules applied after normalization.

The paper filters exact duplicates (scanning artifacts can duplicate
rows) and annotates planned-test disengagements (Bosch and GMCruise)
rather than discarding them — footnote 3 argues those disengagements
occurred naturally even though the tests were planned.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..taxonomy import Modality
from .records import DisengagementRecord


@dataclass
class FilterStats:
    """Bookkeeping for the filtering pass."""

    records_in: int = 0
    duplicates_dropped: int = 0
    planned_annotated: int = 0
    planned_dropped: int = 0


def _dedup_key(record: DisengagementRecord) -> tuple:
    return (
        record.manufacturer,
        record.month,
        record.event_date,
        record.time_of_day,
        record.vehicle_id,
        record.modality,
        record.description,
    )


def filter_records(records: list[DisengagementRecord],
                   drop_planned: bool = False,
                   ) -> tuple[list[DisengagementRecord], FilterStats]:
    """Deduplicate and optionally drop planned-test disengagements.

    ``drop_planned=False`` follows the paper's default (planned tests
    are kept and merely annotated); pass ``True`` for sensitivity
    analyses.
    """
    stats = FilterStats(records_in=len(records))
    seen: set[tuple] = set()
    kept: list[DisengagementRecord] = []
    for record in records:
        key = _dedup_key(record)
        if key in seen:
            stats.duplicates_dropped += 1
            continue
        seen.add(key)
        if record.modality is Modality.PLANNED:
            stats.planned_annotated += 1
            if drop_planned:
                stats.planned_dropped += 1
                continue
        kept.append(record)
    return kept, stats
