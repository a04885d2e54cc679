"""OCR substrate: scanned-document model and recognition simulator.

The real pipeline ran Google Tesseract over scanned DMV PDFs and fell
back to manual transcription where OCR failed (low-resolution scans,
unrecognized table formats).  This package simulates that channel: a
scanner that assigns per-page quality, an OCR engine that injects
character-confusion noise inversely proportional to quality and reports
per-line confidence, a post-OCR correction pass, and a manual-fallback
queue for pages below the confidence threshold.
"""
