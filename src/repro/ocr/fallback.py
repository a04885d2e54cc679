"""Manual-transcription fallback for pages OCR could not read.

The paper: "In certain cases, where the Tesseract OCR failed (because
of low-resolution scans or inability to recognize some table formats),
we manually converted the documents to machine-encoded text."  We model
that with a confidence threshold: pages whose mean OCR confidence falls
below it are queued for manual transcription, which returns the page's
true text (a human reads the original scan).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .document import OcrResult, ScannedDocument, mean_confidence

#: Pages below this mean confidence are transcribed by hand; a page
#: exactly at it keeps its OCR text.
CONFIDENCE_THRESHOLD = 0.75


@dataclass
class ManualTranscriptionQueue:
    """Pages routed to a human transcriber, with effort accounting."""

    pages_transcribed: int = 0
    lines_transcribed: int = 0
    documents_touched: set[str] = field(default_factory=set)

    @staticmethod
    def needs_fallback(confidence: float) -> bool:
        """Whether a page of mean OCR ``confidence`` goes to a human."""
        return confidence < CONFIDENCE_THRESHOLD

    def transcribe(self, document: ScannedDocument,
                   page_number: int) -> list[str]:
        """Manually transcribe one page (returns its true text)."""
        self.pages_transcribed += 1
        page = document.pages[page_number]
        self.lines_transcribed += len(page.true_lines)
        self.documents_touched.add(document.document_id)
        return list(page.true_lines)


def apply_fallback(document: ScannedDocument, result: OcrResult,
                   queue: ManualTranscriptionQueue) -> list[str]:
    """Merge OCR output with manual transcriptions of bad pages.

    Returns the final machine-encoded line list for downstream parsing:
    OCR text for confident pages, human transcription for the rest.
    """
    by_page = result.lines_by_page()
    lines: list[str] = []
    for page in document.pages:
        page_lines = by_page.get(page.page_number, [])
        if queue.needs_fallback(mean_confidence(page_lines)):
            lines.extend(queue.transcribe(document, page.page_number))
        else:
            lines.extend(line.text for line in page_lines)
    return lines
