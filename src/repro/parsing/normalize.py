"""Schema normalization for parsed records (step 2 of the pipeline).

Parsers already coerce field types; this pass enforces the cross-
manufacturer invariants the analysis depends on: canonical month keys,
non-negative quantities, trimmed text, and consistent casing of
enumerated strings.  Records that violate a hard invariant are dropped
(and counted), mirroring the paper's filtering step.  Quantities must
also be finite: a report reading ``1e999`` parses to infinity, which
JSON cannot carry and the database fingerprint would hash as ``null``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from .records import AccidentRecord, DisengagementRecord, MonthlyMileage

_MONTH_RE = re.compile(r"^\d{4}-\d{2}$")

#: Reaction times above this are kept but flagged (the paper keeps
#: Volkswagen's ~4 h outlier in Fig. 10 while excluding it from fits).
REACTION_TIME_SUSPECT_THRESHOLD_S = 600.0


@dataclass
class NormalizationStats:
    """Bookkeeping for the normalization pass."""

    disengagements_in: int = 0
    disengagements_dropped: int = 0
    mileage_in: int = 0
    mileage_dropped: int = 0
    suspect_reaction_times: int = 0
    #: Reason -> number of records dropped (or fields cleared) for it.
    reasons: dict[str, int] = field(default_factory=dict)

    def drop(self, reason: str) -> None:
        """Count one dropped record (or cleared field) under ``reason``."""
        self.reasons[reason] = self.reasons.get(reason, 0) + 1


def _valid_month(month: str) -> bool:
    if not _MONTH_RE.match(month):
        return False
    mon = int(month[5:7])
    return 1 <= mon <= 12


def normalize_disengagement(record: DisengagementRecord,
                            stats: NormalizationStats,
                            ) -> DisengagementRecord | None:
    """Normalize one disengagement; ``None`` when it must be dropped."""
    stats.disengagements_in += 1
    if not record.manufacturer:
        stats.disengagements_dropped += 1
        stats.drop("missing manufacturer")
        return None
    if not _valid_month(record.month):
        stats.disengagements_dropped += 1
        stats.drop("invalid month")
        return None
    record.description = " ".join(record.description.split())
    if not record.description:
        stats.disengagements_dropped += 1
        stats.drop("empty description")
        return None
    if record.road_type is not None:
        record.road_type = record.road_type.strip().lower() or None
    if record.weather is not None:
        record.weather = record.weather.strip() or None
    if record.reaction_time_s is not None:
        if not math.isfinite(record.reaction_time_s):
            record.reaction_time_s = None
            stats.drop("non-finite reaction time")
        elif record.reaction_time_s <= 0:
            record.reaction_time_s = None
        elif record.reaction_time_s > REACTION_TIME_SUSPECT_THRESHOLD_S:
            stats.suspect_reaction_times += 1
    return record


def normalize_mileage(cell: MonthlyMileage,
                      stats: NormalizationStats) -> MonthlyMileage | None:
    """Normalize one mileage cell; ``None`` when it must be dropped."""
    stats.mileage_in += 1
    if not _valid_month(cell.month):
        stats.mileage_dropped += 1
        stats.drop("invalid mileage month")
        return None
    if cell.miles < 0:
        stats.mileage_dropped += 1
        stats.drop("negative miles")
        return None
    if not math.isfinite(cell.miles):
        stats.mileage_dropped += 1
        stats.drop("non-finite miles")
        return None
    return cell


def normalize_records(
        disengagements: list[DisengagementRecord],
        mileage: list[MonthlyMileage],
) -> tuple[list[DisengagementRecord], list[MonthlyMileage],
           NormalizationStats]:
    """Normalize parsed records, returning survivors and statistics."""
    stats = NormalizationStats()
    kept_d = []
    for record in disengagements:
        normalized = normalize_disengagement(record, stats)
        if normalized is not None:
            kept_d.append(normalized)
    kept_m = []
    for cell in mileage:
        normalized_cell = normalize_mileage(cell, stats)
        if normalized_cell is not None:
            kept_m.append(normalized_cell)
    return kept_d, kept_m, stats


def normalize_accident(record: AccidentRecord) -> AccidentRecord:
    """Normalize one accident record in place (speeds, text, month).

    A negative or non-finite speed is unusable and becomes ``None``.
    """
    record.description = " ".join(record.description.split())
    record.av_speed_mph = _usable_speed(record.av_speed_mph)
    record.other_speed_mph = _usable_speed(record.other_speed_mph)
    if record.month is None and record.event_date is not None:
        record.month = (f"{record.event_date.year:04d}-"
                        f"{record.event_date.month:02d}")
    return record


def _usable_speed(speed: float | None) -> float | None:
    """``speed`` if it is a finite, non-negative number, else ``None``."""
    if speed is None or speed < 0 or not math.isfinite(speed):
        return None
    return speed
