"""Unit and quantity helpers shared across the pipeline.

The DMV reports mix units and formats freely: miles vs. kilometres,
"0.8 sec" vs. "0.5-1.0 s" ranges vs. "less than 1 second", 12-hour vs.
24-hour clock times.  This module centralizes the coercions so every
parser normalizes identically.
"""

from __future__ import annotations

import re
from datetime import date, datetime
from functools import lru_cache

from .errors import FieldCoercionError

MILES_PER_KM = 0.621371

_NUMBER_RE = re.compile(r"[-+]?\d*\.?\d+(?:[eE][-+]?\d+)?")
#: A hyphen between digits is a range separator, not a sign.
_RANGE_HYPHEN_RE = re.compile(r"(?<=\d)\s*-\s*(?=[\d.])")
_TRAILING_WORD_RE = re.compile(r"([a-z]+)\s*$")

_DURATION_UNITS = {
    "ms": 1e-3,
    "msec": 1e-3,
    "millisecond": 1e-3,
    "milliseconds": 1e-3,
    "s": 1.0,
    "sec": 1.0,
    "secs": 1.0,
    "second": 1.0,
    "seconds": 1.0,
    "m": 60.0,
    "min": 60.0,
    "mins": 60.0,
    "minute": 60.0,
    "minutes": 60.0,
    "h": 3600.0,
    "hr": 3600.0,
    "hrs": 3600.0,
    "hour": 3600.0,
    "hours": 3600.0,
}

#: Each duration unit as a whole word, in ``_DURATION_UNITS`` order.
_DURATION_UNIT_RES = tuple((re.compile(rf"\b{unit}\b"), factor)
                           for unit, factor in _DURATION_UNITS.items())

_DATE_FORMATS = (
    "%m/%d/%y",
    "%m/%d/%Y",
    "%Y-%m-%d",
    "%b-%y",
    "%B %d, %Y",
    "%d %b %Y",
    "%m-%d-%Y",
)

_TIME_FORMATS = (
    "%H:%M:%S",
    "%H:%M",
    "%I:%M %p",
    "%I:%M:%S %p",
    "%I%p",
)

#: Per directive, a regex that accepts every string the one ``strptime``
#: builds for it accepts: digit counts only, an optional space before
#: a day, and anything at all for the locale's month and AM/PM names.
_DIRECTIVE_SHAPES = {
    "d": r" ?\d{1,2}", "m": r"\d{1,2}", "H": r"\d{1,2}", "I": r"\d{1,2}",
    "M": r"\d{1,2}", "S": r"\d{1,2}", "y": r"\d\d", "Y": r"\d{4}",
    "b": r".*", "B": r".*", "p": r".*",
}


def _shape(fmt: str) -> re.Pattern[str]:
    """What a string must full-match for ``strptime(string, fmt)`` to
    have a chance: ``strptime`` turns each run of whitespace in ``fmt``
    into ``\\s+`` and each directive into a group, and succeeds only
    where its pattern matches the whole string."""
    return re.compile(re.sub(
        r"%(.)|(\s+)|(.)",
        lambda m: (_DIRECTIVE_SHAPES[m[1]] if m[1] else
                   r"\s+" if m[2] else re.escape(m[3])),
        fmt), re.DOTALL)


#: (format, shape) pairs in the order formats are tried.
_DATE_SHAPES = tuple((fmt, _shape(fmt)) for fmt in _DATE_FORMATS)
_TIME_SHAPES = tuple((fmt, _shape(fmt)) for fmt in _TIME_FORMATS)


def parse_duration_seconds(text: str) -> float:
    """Parse a duration like ``"0.8 sec"`` or ``"2 min"`` into seconds.

    Ranges such as ``"0.5-1.0 s"`` are resolved to their *upper* bound,
    following the paper's convention ("we assume the reaction times to be
    upper bounded where they are listed as ranges").  Qualitative phrases
    like ``"less than 1 second"`` also resolve to the stated bound.
    """
    lowered = text.strip().lower()
    if not lowered:
        raise FieldCoercionError("empty duration", line=text)
    cleaned = lowered.replace(",", "")
    cleaned = _RANGE_HYPHEN_RE.sub(" ", cleaned)
    numbers = [float(m.group()) for m in _NUMBER_RE.finditer(cleaned)]
    if not numbers:
        raise FieldCoercionError(f"no duration found in {text!r}", line=text)
    value = max(numbers)
    unit_match = _TRAILING_WORD_RE.search(cleaned)
    multiplier = 1.0
    if unit_match is not None:
        unit = unit_match.group(1)
        if unit in _DURATION_UNITS:
            multiplier = _DURATION_UNITS[unit]
    else:
        for unit_re, factor in _DURATION_UNIT_RES:
            if unit_re.search(cleaned):
                multiplier = factor
                break
    return value * multiplier


#: Bound on each per-string parse memo below (a full corpus holds
#: about 2,000 distinct dates and times).
_PARSE_MEMO_SIZE = 8192


@lru_cache(maxsize=_PARSE_MEMO_SIZE)
def parse_date(text: str) -> date:
    """Parse a date in any of the formats seen across manufacturer reports.

    Memoized: a corpus repeats each date string a few times.  A miss
    runs ``strptime`` only for the formats whose shape the text has, so
    a parseable date is usually read by the first call.  Unparseable
    text is not cached and raises on every call.
    """
    cleaned = text.strip()
    for fmt, shape in _DATE_SHAPES:
        if shape.fullmatch(cleaned) is None:
            continue
        try:
            return datetime.strptime(cleaned, fmt).date()
        except ValueError:
            continue
    raise FieldCoercionError(f"unrecognized date {text!r}", line=text)


@lru_cache(maxsize=_PARSE_MEMO_SIZE)
def parse_time_of_day(text: str) -> tuple[int, int, int]:
    """Parse a wall-clock time into an ``(hour, minute, second)`` tuple.

    Memoized like :func:`parse_date`.
    """
    cleaned = " ".join(text.strip().upper().split())
    for fmt, shape in _TIME_SHAPES:
        if shape.fullmatch(cleaned) is None:
            continue
        try:
            parsed = datetime.strptime(cleaned, fmt)
        except ValueError:
            continue
        return parsed.hour, parsed.minute, parsed.second
    raise FieldCoercionError(f"unrecognized time {text!r}", line=text)


def month_key(value: date) -> str:
    """Return the canonical ``YYYY-MM`` key for a date."""
    return f"{value.year:04d}-{value.month:02d}"


def months_between(start: date, end: date) -> list[str]:
    """Return the inclusive list of ``YYYY-MM`` keys between two dates."""
    if (end.year, end.month) < (start.year, start.month):
        raise FieldCoercionError(
            f"end month {end} precedes start month {start}")
    keys = []
    year, month = start.year, start.month
    while (year, month) <= (end.year, end.month):
        keys.append(f"{year:04d}-{month:02d}")
        month += 1
        if month == 13:
            month = 1
            year += 1
    return keys
