"""Field-level coercions shared by the format parsers.

These helpers are deliberately tolerant: the text they see has been
through the OCR channel, so ``"O.8 sec"`` (letter O) must still parse
as 0.8 seconds and ``"May-l6"`` as May 2016.  Structural repairs that
need *numeric context* live here; generic character-level repair lives
in :mod:`repro.ocr.correction`.
"""

from __future__ import annotations

import re
from datetime import date
from functools import lru_cache

from ..errors import FieldCoercionError
from ..taxonomy import Modality
from ..units import parse_date, parse_duration_seconds, parse_time_of_day

_MONTH_NUMBERS = {
    "jan": 1, "feb": 2, "mar": 3, "apr": 4, "may": 5, "jun": 6,
    "jul": 7, "aug": 8, "sep": 9, "oct": 10, "nov": 11, "dec": 12,
}

#: Character repairs applied inside numeric fields only.
_DIGIT_REPAIRS = str.maketrans({
    "O": "0", "o": "0", "l": "1", "I": "1", "|": "1",
    "S": "5", "B": "8", "Z": "2", "g": "9",
})

_MODALITY_WORDS = {
    "auto": Modality.AUTOMATIC,
    "automatic": Modality.AUTOMATIC,
    "system": Modality.AUTOMATIC,
    "manual": Modality.MANUAL,
    "driver": Modality.MANUAL,
    "planned": Modality.PLANNED,
    "planned test": Modality.PLANNED,
    "planned fault injection": Modality.PLANNED,
}

_NUMBER_RE = re.compile(r"[-+]?\d*\.?\d+(?:[eE][-+]?\d+)?")
_MONTH_YEAR_RE = re.compile(r"([A-Za-z0-9|]{2,9})[-/\s]+(\S+)")
_DIGITS_RE = re.compile(r"\d+")

_ROAD_TYPES = (
    "city street", "highway", "interstate", "freeway", "parking lot",
    "suburban", "rural", "street", "urban",
)


def repair_numeric_text(text: str) -> str:
    """Translate common OCR letter/digit confusions in a numeric field."""
    return text.translate(_DIGIT_REPAIRS)


def coerce_number(text: str) -> float:
    """Parse a number out of possibly OCR-damaged text."""
    repaired = repair_numeric_text(text.strip())
    match = _NUMBER_RE.search(repaired.replace(",", ""))
    if match is None:
        raise FieldCoercionError(f"no number in {text!r}", line=text)
    return float(match.group())


def coerce_date(text: str) -> date:
    """Parse a date, repairing OCR digit damage first."""
    return parse_date(repair_numeric_text(text.strip()))


def coerce_time(text: str) -> tuple[int, int, int]:
    """Parse a time-of-day, repairing OCR digit damage first."""
    return parse_time_of_day(repair_numeric_text(text.strip()))


#: Digit look-alikes inside month names ("5ep" -> "sep").
_MONTH_LETTER_REPAIRS = str.maketrans(
    {"5": "s", "0": "o", "1": "l", "|": "l", "8": "b", "9": "g"})


def coerce_month_abbr(text: str) -> str:
    """Parse a ``May-16``-style month into canonical ``YYYY-MM``."""
    repaired = text.strip()
    match = _MONTH_YEAR_RE.match(repaired)
    if match is None:
        raise FieldCoercionError(f"unrecognized month {text!r}", line=text)
    name = match.group(1).lower().translate(_MONTH_LETTER_REPAIRS)[:3]
    if name not in _MONTH_NUMBERS:
        name = _fuzzy_month(name)
    if name not in _MONTH_NUMBERS:
        raise FieldCoercionError(f"unknown month name {text!r}", line=text)
    year_text = repair_numeric_text(match.group(2))
    year_match = _DIGITS_RE.search(year_text)
    if year_match is None:
        raise FieldCoercionError(f"no year in {text!r}", line=text)
    year = int(year_match.group())
    if year < 100:
        year += 2000
    return f"{year:04d}-{_MONTH_NUMBERS[name]:02d}"


def _fuzzy_month(name: str) -> str:
    """Snap an OCR-damaged month abbreviation to the closest month.

    Accepts a single substitution ("dee" -> "dec") or a single dropped
    leading/trailing letter ("ug" -> "aug").
    """
    candidates = []
    for month in _MONTH_NUMBERS:
        if len(name) == 3:
            if sum(a != b for a, b in zip(name, month)) == 1:
                candidates.append(month)
        elif len(name) == 2 and (month[1:] == name or month[:2] == name):
            candidates.append(month)
    return candidates[0] if len(candidates) == 1 else name


def coerce_reaction_time(text: str) -> float | None:
    """Parse a reaction time in seconds; empty text means unreported."""
    stripped = text.strip().strip('"')
    if not stripped or stripped in {"-", "--", "n/a", "N/A"}:
        return None
    return parse_duration_seconds(repair_numeric_text(stripped))


def coerce_modality(text: str) -> Modality | None:
    """Map an initiator word to a modality, ``None`` when unknown."""
    return _MODALITY_WORDS.get(text.strip().strip('"').lower())


def coerce_road_type(text: str) -> str | None:
    """Normalize a road-type field to lowercase canonical text."""
    lowered = text.strip().strip('"').lower()
    if not lowered or lowered in {"unknown", "unknown road", "-"}:
        return None
    for road in _ROAD_TYPES:
        if road in lowered:
            return road if road not in ("street", "urban") else "city street"
    return lowered


def coerce_weather(text: str) -> str | None:
    """Normalize a weather field; unknowns map to ``None``."""
    stripped = text.strip().strip('"')
    if not stripped or stripped.lower() in {"unknown", "-", "n/a"}:
        return None
    return stripped


#: Separators as OCR leaves them: an em-dash also reads as an en-dash
#: or hyphen(s) between spaces, a pipe as a broken bar.
_EM_DASH_SPLIT_RE = re.compile(r"\s+[—–-]{1,2}\s+")
_PIPE_SPLIT_RE = re.compile(r"\s*[|¦]\s*")


def split_fields(line: str, separator: str) -> list[str]:
    """Split a report row on its separator, trimming whitespace.

    Tolerates OCR damage to the separator itself: em-dash rows are also
    split on hyphen-with-spaces, and pipe rows on the broken-bar
    character.
    """
    if separator == "—":
        parts = _EM_DASH_SPLIT_RE.split(line)
    elif separator == "|":
        parts = _PIPE_SPLIT_RE.split(line)
    else:
        parts = line.split(separator)
    return [p.strip() for p in parts]


def split_csv(line: str) -> list[str]:
    """Split a CSV row honoring double-quoted fields."""
    return list(_split_csv(line))


@lru_cache(maxsize=1)
def _split_csv(line: str) -> tuple[str, ...]:
    """The fields of the last row split, memoized as a tuple (so no
    caller can change it): a parser tries each line as a mileage line
    and then as an event row, and both split it."""
    fields: list[str] = []
    current = ""
    # Every other piece between quote characters is quoted, and its
    # commas are text; the quote characters themselves are dropped.
    for index, piece in enumerate(line.split('"')):
        if index % 2:
            current += piece
            continue
        head, *rest = piece.split(",")
        current += head
        for part in rest:
            fields.append(current.strip())
            current = part
    fields.append(current.strip())
    return tuple(fields)
