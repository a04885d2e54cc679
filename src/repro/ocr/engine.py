"""OCR engine simulator.

Reads a :class:`ScannedDocument` through the character-confusion
channel and reports per-line confidence the way a real engine does:
high when few glyphs were ambiguous, degrading with page quality.
Confidence is *estimated* (the engine cannot know its true error
count), so it is the true clean fraction perturbed by estimation noise
— which is exactly what makes a fallback threshold meaningful.
"""

from __future__ import annotations

import numpy as np

from .confusion import ConfusionModel
from .document import OcrLine, OcrResult, ScannedDocument

#: Standard deviation of the engine's confidence-estimation noise.
CONFIDENCE_NOISE = 0.03


class OcrEngine:
    """Simulated OCR engine with per-line confidence reporting."""

    def __init__(self) -> None:
        self.confusion = ConfusionModel()

    def recognize(self, document: ScannedDocument,
                  rng: np.random.Generator) -> OcrResult:
        """OCR the whole document."""
        result = OcrResult(document_id=document.document_id)
        for page in document.pages:
            for line in page.true_lines:
                text, corruptions = self.confusion.corrupt_line(
                    line, page.quality, rng)
                confidence = self._estimate_confidence(
                    line, corruptions, page.quality, rng)
                result.lines.append(OcrLine(
                    text=text, confidence=confidence,
                    page_number=page.page_number))
        return result

    def _estimate_confidence(self, line: str, corruptions: int,
                             quality: float,
                             rng: np.random.Generator) -> float:
        if not line:
            return 1.0
        clean_fraction = 1.0 - corruptions / max(len(line), 1)
        # The engine's own confidence blends glyph certainty with page
        # quality, plus estimation noise.
        estimate = (0.7 * clean_fraction + 0.3 * quality
                    + rng.normal(0.0, CONFIDENCE_NOISE))
        return float(min(max(estimate, 0.0), 1.0))
