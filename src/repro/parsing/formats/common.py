"""Helpers shared by the format parsers."""

from __future__ import annotations

import re

from ...errors import ParseError
from ..fields import coerce_number, repair_numeric_text
from ..records import MonthlyMileage

#: Matches the library's default mileage line:
#: ``MILES 2015-03 Leaf #1 (Alfa) 55.32``
#: The keyword pattern tolerates OCR damage (``M1LES``, ``MILE5``,
#: ``MILES5`` after over-eager word repair).
_DEFAULT_MILEAGE_RE = re.compile(
    r"(?i)^\s*M[I1l]LE[S5]{1,2}\s+(\S+)\s+(.*\S)\s+([\dOoIl|.,]+)\s*$")

_MONTH_RE = re.compile(r"^(\d{4})-(\d{2})$")


def coerce_month_iso(text: str) -> str:
    """Parse a ``YYYY-MM`` month key, repairing OCR digit damage."""
    repaired = repair_numeric_text(text.strip())
    match = _MONTH_RE.match(repaired)
    if match is None:
        raise ParseError(f"bad month key {text!r}", line=text)
    year, month = int(match.group(1)), int(match.group(2))
    if not 1 <= month <= 12:
        raise ParseError(f"month out of range in {text!r}", line=text)
    return f"{year:04d}-{month:02d}"


def parse_default_mileage(manufacturer: str,
                          line: str) -> MonthlyMileage | None:
    """Parse the default ``MILES <month> <vehicle> <miles>`` line."""
    match = _DEFAULT_MILEAGE_RE.match(line)
    if match is None:
        return None
    month = coerce_month_iso(match.group(1))
    miles = coerce_number(match.group(3))
    return MonthlyMileage(
        manufacturer=manufacturer, month=month,
        miles=miles, vehicle_id=match.group(2).strip())


def pop_tail_field(fields: list[str],
                   pattern: str) -> str | None:
    """Remove and return the last field matching ``pattern`` (regex).

    Only inspects the trailing fields (the description occupies the
    middle of the row), so a matching word inside the narrative is not
    stolen.
    """
    if not fields:
        return None
    if re.match(pattern, fields[-1].strip(), flags=re.IGNORECASE):
        return fields.pop().strip()
    return None


DURATION_TAIL = r"^[\dOoIl|., ]+\s*(s|sec|secs|seconds?|ms|min|mins)\s*$"
