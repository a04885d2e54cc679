"""Tesla disengagement-report parser.

Tesla rows are sparse and hyphen-separated::

    5/12/16 09:14 - Auto - <description> [- rt 0.7s]

Most Tesla descriptions carry no causal detail (the paper tags 98.35%
of Tesla disengagements Unknown-C).
"""

from __future__ import annotations

import re

from ...errors import ParseError
from ..base import ReportParser
from ..fields import coerce_date, coerce_modality, coerce_reaction_time, coerce_time
from ..records import DisengagementRecord, MonthlyMileage
from .common import parse_default_mileage

_RT_RE = re.compile(r"(?i)^rt\s+(.+)$")
_FIELD_SPLIT_RE = re.compile(r"\s-\s")


class TeslaParser(ReportParser):
    """Parser for Tesla's hyphen-separated rows."""

    manufacturer = "Tesla"

    def parse_mileage(self, line: str) -> MonthlyMileage | None:
        return parse_default_mileage(self.manufacturer, line)

    def parse_row(self, line: str) -> DisengagementRecord | None:
        fields = [f.strip() for f in _FIELD_SPLIT_RE.split(line)]
        if len(fields) < 3:
            return None
        datetime_parts = fields[0].split()
        if len(datetime_parts) < 2:
            return None
        try:
            event_date = coerce_date(datetime_parts[0])
            time_of_day = coerce_time(" ".join(datetime_parts[1:]))
        except ParseError:
            return None
        modality = coerce_modality(fields[1])
        rest = fields[2:]
        reaction = None
        # A trailing "rt ..." field is a reaction time only when a
        # description precedes it; alone, it is the description.
        if len(rest) > 1:
            match = _RT_RE.match(rest[-1])
            if match:
                reaction = coerce_reaction_time(match.group(1))
                rest.pop()
        description = " - ".join(rest).strip()
        if not description:
            return None
        return DisengagementRecord(
            manufacturer=self.manufacturer,
            month=f"{event_date.year:04d}-{event_date.month:02d}",
            event_date=event_date,
            time_of_day=time_of_day,
            vehicle_id=None,
            modality=modality,
            road_type=None,
            weather=None,
            reaction_time_s=reaction,
            description=description,
        )
