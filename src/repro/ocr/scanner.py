"""Scanner model: per-page scan quality.

Most pages of the DMV corpus scanned cleanly; a minority were
low-resolution or skewed enough that Tesseract failed and the authors
transcribed them by hand.  The scanner draws per-page quality from a
Beta distribution concentrated near 1, except for a fixed fraction of
"bad" pages drawn from a low-quality regime.
"""

from __future__ import annotations

import numpy as np

from .document import ScannedDocument, page_count, paginate

#: Beta parameters of a normal page's quality (mean near 0.95).
GOOD_ALPHA = 18.0
GOOD_BETA = 1.0
#: Fraction of pages scanned badly.
BAD_PAGE_RATE = 0.04
#: Uniform quality range of a bad page.
BAD_LOW = 0.05
BAD_HIGH = 0.45


class Scanner:
    """Turns raw report text into a :class:`ScannedDocument`."""

    def scan(self, document_id: str, lines: list[str],
             rng: np.random.Generator) -> ScannedDocument:
        """Scan ``lines`` into pages with sampled quality."""
        pages = page_count(len(lines))
        qualities = []
        for _ in range(pages):
            if rng.random() < BAD_PAGE_RATE:
                quality = rng.uniform(BAD_LOW, BAD_HIGH)
            else:
                quality = rng.beta(GOOD_ALPHA, GOOD_BETA)
            qualities.append(float(min(max(quality, 1e-6), 1.0)))
        return paginate(document_id, lines, qualities)
