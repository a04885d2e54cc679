"""Parser interface, registry, and document dispatch for Stage II.

Each manufacturer's report format gets a :class:`ReportParser`
subclass; the :class:`ParserRegistry` resolves the right parser from
the (possibly OCR-damaged) ``Manufacturer:`` header using fuzzy
matching, falling back to format sniffing when the header is
unreadable.
"""

from __future__ import annotations

import re
from abc import ABC, abstractmethod

from ..errors import ParseError, UnknownFormatError
from .records import DisengagementRecord, MonthlyMileage, ParsedReport

_HEADER_MARKERS = (
    "REPORT OF AUTONOMOUS VEHICLE DISENGAGEMENTS",
    "SECTION 1", "SECTION 2", "END OF REPORT", "Reporting period:",
)
#: A line holding a marker's first 12 characters, in any case, is a
#: header line.
_HEADER_KEYS = tuple(marker.lower()[:12] for marker in _HEADER_MARKERS)
_MANUFACTURER_RE = re.compile(r"(?i)manufacturer\s*:")
#: A "Manufacturer: <name>" header line, capturing the name.
_MANUFACTURER_HEADER_RE = re.compile(r"(?i)\s*manufacturer\s*:\s*(.+)")


def _levenshtein(a: str, b: str, cap: int = 4) -> int:
    """Edit distance with an early-exit cap (headers are short)."""
    if abs(len(a) - len(b)) > cap:
        return cap + 1
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        best = i
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            value = min(previous[j] + 1, current[j - 1] + 1,
                        previous[j - 1] + cost)
            current.append(value)
            best = min(best, value)
        if best > cap:
            return cap + 1
        previous = current
    return previous[-1]


class ReportParser(ABC):
    """Base class for per-manufacturer disengagement-report parsers."""

    #: Canonical manufacturer name this parser handles.
    manufacturer: str = ""

    @abstractmethod
    def parse_row(self, line: str) -> DisengagementRecord | None:
        """Parse one disengagement row, or ``None`` if not a row."""

    @abstractmethod
    def parse_mileage(self, line: str) -> MonthlyMileage | None:
        """Parse one mileage line, or ``None`` if not a mileage line."""

    def sniff(self, lines: list[str]) -> bool:
        """Whether this parser recognizes the body format of ``lines``.

        The default sniffs by attempting to parse rows; subclasses may
        override with cheaper checks.
        """
        hits = 0
        for line in lines:
            try:
                if self.parse_row(line) is not None:
                    hits += 1
            except ParseError:
                continue
            if hits >= 3:
                return True
        return hits > 0

    def _is_header(self, line: str) -> bool:
        stripped = line.strip()
        if not stripped:
            return True
        lowered = stripped.lower()
        for key in _HEADER_KEYS:
            if key in lowered:
                return True
        return _MANUFACTURER_RE.match(stripped) is not None

    def parse(self, lines: list[str], document_id: str) -> ParsedReport:
        """Parse a whole report document into canonical records."""
        report = ParsedReport(
            manufacturer=self.manufacturer, document_id=document_id)
        for line_no, line in enumerate(lines):
            if self._is_header(line):
                continue
            try:
                mileage = self.parse_mileage(line)
            except ParseError:
                mileage = None
            if mileage is not None:
                report.mileage.append(mileage)
                continue
            try:
                record = self.parse_row(line)
            except ParseError:
                record = None
            if record is not None:
                record.source_document = document_id
                record.source_line = line_no
                report.disengagements.append(record)
                continue
            report.unparsed_lines.append(line)
        return report


class ParserRegistry:
    """Resolves a parser for a document by header name or by sniffing."""

    def __init__(self) -> None:
        self._parsers: dict[str, ReportParser] = {}

    def register(self, parser: ReportParser) -> None:
        """Register ``parser`` under its manufacturer name."""
        if not parser.manufacturer:
            raise ParseError("parser has no manufacturer name")
        self._parsers[parser.manufacturer.lower()] = parser

    def parsers(self) -> list[ReportParser]:
        """All registered parsers."""
        return list(self._parsers.values())

    def by_name(self, name: str) -> ReportParser | None:
        """Fuzzy lookup by manufacturer name (OCR-tolerant)."""
        lowered = name.strip().lower()
        if lowered in self._parsers:
            return self._parsers[lowered]
        best: tuple[int, ReportParser] | None = None
        for key, parser in self._parsers.items():
            distance = _levenshtein(lowered, key, cap=3)
            if distance <= 3 and (best is None or distance < best[0]):
                best = (distance, parser)
        return best[1] if best else None

    def resolve(self, lines: list[str]) -> ReportParser:
        """Pick the parser for a document: header first, then sniff."""
        for line in lines[:6]:
            match = _MANUFACTURER_HEADER_RE.match(line)
            if match:
                parser = self.by_name(match.group(1))
                if parser is not None:
                    return parser
        for parser in self._parsers.values():
            if parser.sniff(lines):
                return parser
        raise UnknownFormatError(
            "no registered parser recognizes this document",
            line=lines[0] if lines else None)


def default_registry() -> ParserRegistry:
    """Registry with all built-in per-manufacturer parsers."""
    # Imported here to avoid a cycle (formats import this module).
    from .formats import all_parsers

    registry = ParserRegistry()
    for parser in all_parsers():
        registry.register(parser)
    return registry
