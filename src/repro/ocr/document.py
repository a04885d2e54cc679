"""Scanned-document and OCR-output models."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import OcrError

#: Number of text lines per simulated scanned page.
LINES_PER_PAGE = 40


@dataclass
class ScannedPage:
    """One page of a scanned report.

    ``true_lines`` is the underlying clean text (what a perfect OCR
    would return); ``quality`` in (0, 1] models scan resolution and
    contrast.  The OCR engine never reads ``true_lines`` directly —
    it reads them *through* the noise channel parameterized by
    ``quality``.
    """

    page_number: int
    true_lines: list[str]
    quality: float

    def __post_init__(self) -> None:
        if not 0.0 < self.quality <= 1.0:
            raise OcrError(
                f"page {self.page_number} quality {self.quality} outside "
                "(0, 1]")


@dataclass
class ScannedDocument:
    """A scanned report: ordered pages plus provenance."""

    document_id: str
    pages: list[ScannedPage] = field(default_factory=list)

    def true_lines(self) -> list[str]:
        """The clean text of the whole document (testing/fallback)."""
        return [line for page in self.pages for line in page.true_lines]


@dataclass
class OcrLine:
    """One recognized line with the engine's confidence estimate."""

    text: str
    confidence: float
    page_number: int


@dataclass
class OcrResult:
    """Output of OCR over a whole document."""

    document_id: str
    lines: list[OcrLine] = field(default_factory=list)

    def lines_by_page(self) -> dict[int, list[OcrLine]]:
        """The recognized lines of each page, in order, in one pass."""
        pages: dict[int, list[OcrLine]] = {}
        for line in self.lines:
            pages.setdefault(line.page_number, []).append(line)
        return pages

    @property
    def mean_confidence(self) -> float:
        """Mean confidence across all lines (1.0 for empty output)."""
        return mean_confidence(self.lines)


def mean_confidence(lines: list[OcrLine]) -> float:
    """Mean confidence of ``lines`` (1.0 when there are none)."""
    if not lines:
        return 1.0
    return sum(l.confidence for l in lines) / len(lines)


def paginate(document_id: str, lines: list[str],
             qualities: list[float]) -> ScannedDocument:
    """Split ``lines`` into pages with the given per-page qualities."""
    pages = []
    for index in range(0, len(lines), LINES_PER_PAGE):
        page_number = index // LINES_PER_PAGE
        if page_number >= len(qualities):
            raise OcrError(
                f"document {document_id}: {len(qualities)} qualities for "
                f"{page_number + 1}+ pages")
        pages.append(ScannedPage(
            page_number=page_number,
            true_lines=lines[index:index + LINES_PER_PAGE],
            quality=qualities[page_number],
        ))
    return ScannedDocument(document_id=document_id, pages=pages)


def page_count(line_total: int) -> int:
    """Number of pages needed for ``line_total`` lines."""
    return max(1, -(-line_total // LINES_PER_PAGE))
