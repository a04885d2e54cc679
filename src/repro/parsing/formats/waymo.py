"""Waymo disengagement-report parser.

Waymo reports month granularity only (Table II: ``May-16 — Highway —
Safe Operation — Disengage for a recklessly behaving road user``).
Our rendered rows add modality, optional reaction-time, and optional
car fields::

    May-16 — Highway — Manual — Safe Operation — <description>
      [— reaction 1.2 s] [— car AV-003]

Mileage lines::

    Autonomous miles May-16 car AV-001: 28342.1
"""

from __future__ import annotations

import re

from ...errors import ParseError
from ..base import ReportParser
from ..fields import (
    coerce_modality,
    coerce_month_abbr,
    coerce_reaction_time,
    coerce_road_type,
    split_fields,
)
from ..records import DisengagementRecord, MonthlyMileage

#: Waymo mileage lines are recognized structurally, not by keyword:
#: Waymo's section has thousands of lines, so keyword anchoring loses
#: a measurable share of miles to OCR damage.  A mileage line is
#: "<anything> <Mon-YY token> <car word> <vehicle>: <number>".
_MILEAGE_TAIL_RE = re.compile(
    r"^(?P<head>.*\S)\s*:\s*(?P<miles>[\dOoIl|.,]+)\s*$")
_MONTH_TOKEN_RE = re.compile(
    r"\b([A-Za-z0-9|]{2,9})-([0-9OoIl|]{2})\b")

_REACTION_RE = re.compile(r"(?i)^reaction\s+(.+)$")
_CAR_RE = re.compile(r"(?i)^c[ao]r\s+(.+)$")

_VEHICLE_ID_RE = re.compile(r"(?i)^([a-z]{1,3}[0-9OoIl|]?)-(\S+)$")


def _repair_vehicle_id(text: str) -> str:
    """Normalize an OCR-damaged Waymo fleet id (``AV-O01`` -> ``AV-001``)."""
    from ..fields import repair_numeric_text

    match = _VEHICLE_ID_RE.match(text.strip())
    if match is None:
        return text.strip()
    return f"AV-{repair_numeric_text(match.group(2))}"


class WaymoParser(ReportParser):
    """Parser for Waymo's month-granularity em-dash rows."""

    manufacturer = "Waymo"

    def parse_mileage(self, line: str) -> MonthlyMileage | None:
        if "—" in line:
            return None  # event rows are em-dash separated
        match = _MILEAGE_TAIL_RE.match(line)
        if match is None:
            return None
        head = match.group("head")
        month_token = _MONTH_TOKEN_RE.search(head)
        if month_token is None:
            return None
        from ..fields import coerce_number
        try:
            month = coerce_month_abbr(month_token.group(0))
        except ParseError:
            return None
        trailing = head[month_token.end():].split()
        if not trailing:
            return None
        return MonthlyMileage(
            manufacturer=self.manufacturer,
            month=month,
            miles=coerce_number(match.group("miles")),
            vehicle_id=_repair_vehicle_id(trailing[-1]),
        )

    def parse_row(self, line: str) -> DisengagementRecord | None:
        fields = split_fields(line, "—")
        if len(fields) < 5:
            return None
        try:
            month = coerce_month_abbr(fields[0])
        except ParseError:
            return None
        road = coerce_road_type(fields[1])
        modality = coerce_modality(fields[2])
        rest = fields[4:]  # fields[3] is the fixed "Safe Operation" label
        reaction = None
        vehicle = None
        # The first of ``rest`` is always the description, even when it
        # reads like an optional field ("reaction aa"); only fields
        # after it are peeled off as reaction or car.
        while len(rest) > 1:
            tail = rest[-1].strip()
            reaction_match = _REACTION_RE.match(tail)
            car_match = _CAR_RE.match(tail)
            if car_match and vehicle is None:
                vehicle = _repair_vehicle_id(car_match.group(1))
                rest.pop()
            elif reaction_match and reaction is None:
                reaction = coerce_reaction_time(reaction_match.group(1))
                rest.pop()
            else:
                break
        description = " — ".join(rest).strip()
        if not description:
            return None
        return DisengagementRecord(
            manufacturer=self.manufacturer,
            month=month,
            event_date=None,
            time_of_day=None,
            vehicle_id=vehicle,
            modality=modality,
            road_type=road,
            weather=None,
            reaction_time_s=reaction,
            description=description,
        )
