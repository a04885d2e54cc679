"""Mercedes-Benz disengagement-report parser.

Rows are semicolon-separated key-value pairs::

    Date: 03/14/2015; Time: 14:02; Vehicle: S500-1; Initiator: Driver;
    Cause: <description>; Road: highway; Weather: Sunny/Dry;
    Reaction: 0.8 sec

Mileage lines report kilometres (converted to miles here)::

    Month: 2015-03; Vehicle: S500-1; Autonomous km: 1234.5
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from functools import lru_cache
from types import MappingProxyType

from ...errors import ParseError
from ...units import MILES_PER_KM
from ..base import ReportParser
from ..fields import (
    coerce_date,
    coerce_modality,
    coerce_number,
    coerce_reaction_time,
    coerce_road_type,
    coerce_time,
    coerce_weather,
)
from ..records import DisengagementRecord, MonthlyMileage
from .common import coerce_month_iso

_KV_RE = re.compile(r"\s*([A-Za-z ]+?)\s*:\s*(.*)")

#: Canonical field keys; OCR-damaged keys are snapped to the closest
#: one within edit distance 2 ("Dafe" -> "date", "Tirne" -> "time").
_KNOWN_KEYS = ("date", "time", "vehicle", "initiator", "cause", "road",
               "weather", "reaction", "month", "autonomous km")


@lru_cache(maxsize=1024)
def _snap_key(key: str) -> str:
    """The known key ``key`` snaps to (memoized: a report repeats a
    handful of labels, and a miss costs up to ten Levenshteins)."""
    from ..base import _levenshtein

    if key in _KNOWN_KEYS:
        return key
    best_key, best_distance = key, 3
    for known in _KNOWN_KEYS:
        distance = _levenshtein(key, known, cap=2)
        if distance < best_distance:
            best_key, best_distance = known, distance
    return best_key


@lru_cache(maxsize=1)
def _parse_key_values(line: str) -> Mapping[str, str]:
    """Split ``Key: value; Key: value`` rows into a read-only mapping.

    Keys are fuzzy-matched against the known schema so OCR damage to a
    field label does not lose the field.  The last line's mapping is
    memoized: ``parse`` tries each line as a mileage line and then as
    an event row.
    """
    pairs: dict[str, str] = {}
    for chunk in line.split(";"):
        match = _KV_RE.match(chunk)
        if match:
            key = _snap_key(match.group(1).strip().lower())
            pairs[key] = match.group(2).strip()
    return MappingProxyType(pairs)


class BenzParser(ReportParser):
    """Parser for Mercedes-Benz's key-value rows."""

    manufacturer = "Mercedes-Benz"

    def parse_mileage(self, line: str) -> MonthlyMileage | None:
        pairs = _parse_key_values(line)
        if "month" not in pairs or "autonomous km" not in pairs:
            return None
        month = coerce_month_iso(pairs["month"])
        km = coerce_number(pairs["autonomous km"])
        return MonthlyMileage(
            manufacturer=self.manufacturer,
            month=month,
            miles=km * MILES_PER_KM,
            vehicle_id=pairs.get("vehicle"),
        )

    def parse_row(self, line: str) -> DisengagementRecord | None:
        pairs = _parse_key_values(line)
        if "date" not in pairs or "cause" not in pairs:
            return None
        try:
            event_date = coerce_date(pairs["date"])
        except ParseError:
            return None
        time_of_day = None
        if pairs.get("time"):
            try:
                time_of_day = coerce_time(pairs["time"])
            except ParseError:
                time_of_day = None
        reaction = None
        if pairs.get("reaction"):
            try:
                reaction = coerce_reaction_time(pairs["reaction"])
            except ParseError:
                reaction = None
        return DisengagementRecord(
            manufacturer=self.manufacturer,
            month=f"{event_date.year:04d}-{event_date.month:02d}",
            event_date=event_date,
            time_of_day=time_of_day,
            vehicle_id=pairs.get("vehicle"),
            modality=coerce_modality(pairs.get("initiator", "")),
            road_type=coerce_road_type(pairs.get("road", "")),
            weather=coerce_weather(pairs.get("weather", "")),
            reaction_time_s=reaction,
            description=pairs["cause"],
        )
