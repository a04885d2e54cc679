"""Stage implementations and diagnostics for the pipeline runner.

:class:`PipelineDiagnostics` is a run's one account of itself: the
health summary, the per-stage wall times and — via
:func:`render_metrics`, once, when the run ends — its metrics all read
from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..nlp.evaluation import TaggingReport
from ..obs.metrics import (
    DEGRADATIONS_TOTAL,
    OCR_FALLBACK_PAGES,
    QUARANTINED_TOTAL,
    STAGE_DURATION,
    STAGE_ERRORS_TOTAL,
    TOKEN_CACHE_HITS,
    TOKEN_CACHE_MISSES,
    UNITS_TOTAL,
    UNPARSED_LINES,
    MetricsRegistry,
)
from ..ocr.correction import OcrCorrector
from ..ocr.engine import OcrEngine
from ..ocr.fallback import ManualTranscriptionQueue, apply_fallback
from ..ocr.scanner import Scanner
from ..parsing.filters import FilterStats
from ..parsing.normalize import NormalizationStats
from ..synth.reports import RawDocument
from .resilience import RunHealth


@dataclass
class OcrStageStats:
    """Diagnostics of the OCR stage."""

    documents: int = 0
    pages: int = 0
    lines: int = 0
    mean_confidence: float = 1.0
    fallback_pages: int = 0
    fallback_lines: int = 0


@dataclass
class ParseStageStats:
    """Diagnostics of the parsing stage."""

    documents: int = 0
    disengagements_parsed: int = 0
    mileage_cells_parsed: int = 0
    accidents_parsed: int = 0
    unparsed_lines: int = 0
    #: Documents whose Stage II outcome was replayed from a checkpoint
    #: journal instead of recomputed (always 0 without ``--resume``).
    documents_restored: int = 0


@dataclass
class PipelineDiagnostics:
    """Everything the pipeline observed about its own run."""

    ocr: OcrStageStats = field(default_factory=OcrStageStats)
    parse: ParseStageStats = field(default_factory=ParseStageStats)
    normalization: NormalizationStats = field(
        default_factory=NormalizationStats)
    filters: FilterStats = field(default_factory=FilterStats)
    #: NLP accuracy vs. ground truth, over the records that carry it.
    tagging: TaggingReport | None = None
    #: Dictionary size used for tagging.
    dictionary_entries: int = 0
    #: What the resilience layer observed (errors, degradations,
    #: quarantine counts per stage).
    health: RunHealth = field(default_factory=RunHealth)
    #: Stage name -> wall seconds, from the run's one stage clock
    #: (:meth:`repro.obs.runtime.Observability.stage`).
    stage_wall_s: dict[str, float] = field(default_factory=dict)
    #: Per-unit stage -> units it restored or computed.
    stage_units: dict[str, int] = field(default_factory=dict)
    #: Token-memo hits and misses of the process-global cache over the
    #: run.
    token_cache_hits: int = 0
    token_cache_misses: int = 0
    #: JSON-able snapshot of :func:`render_metrics` (``None`` unless
    #: the run was started with ``metrics_enabled``).
    metrics: dict | None = None
    #: Where the run published its JSONL span trace (``None`` unless
    #: tracing was active).
    trace_path: str | None = None


#: Resilience families: (name, help, :class:`StageHealth` counter).
_RESILIENCE_FAMILIES = (
    (STAGE_ERRORS_TOTAL, "Unexpected per-unit stage failures", "errors"),
    (DEGRADATIONS_TOTAL, "Degraded-mode fallbacks taken",
     "degradations"),
    (QUARANTINED_TOTAL, "Units dead-lettered to quarantine",
     "quarantined"),
)


def render_metrics(diagnostics: PipelineDiagnostics) -> MetricsRegistry:
    """A finished run's metrics, rendered once from its diagnostics.

    Nothing in the pipeline updates a metric while it runs; every
    series here is read off the same counters the health summary
    prints, so the two can never disagree (a resumed run's restored
    quarantines count in both).  The three resilience families are
    always registered and carry a series per stage with a non-zero
    count.  The data-quality counters (OCR fallback pages, unparsed
    lines) are always registered, zero on a clean run.
    """
    registry = MetricsRegistry()
    durations = registry.histogram(
        STAGE_DURATION, "Wall time per pipeline stage", ("stage",))
    for stage, seconds in diagnostics.stage_wall_s.items():
        durations.labels(stage).observe(seconds)
    units = registry.counter(
        UNITS_TOTAL, "Units of work processed per stage", ("stage",))
    for stage, count in diagnostics.stage_units.items():
        units.labels(stage).inc(count)
    for name, help_text, counter in _RESILIENCE_FAMILIES:
        family = registry.counter(name, help_text, ("stage",))
        for stage, health in diagnostics.health.stages.items():
            count = getattr(health, counter)
            if count:
                family.labels(stage).inc(count)
    registry.counter(TOKEN_CACHE_HITS, "Token-memo hits").inc(
        diagnostics.token_cache_hits)
    registry.counter(TOKEN_CACHE_MISSES, "Token-memo misses").inc(
        diagnostics.token_cache_misses)
    registry.counter(OCR_FALLBACK_PAGES,
                     "OCR pages sent to manual transcription").inc(
        diagnostics.ocr.fallback_pages)
    registry.counter(UNPARSED_LINES,
                     "Report lines no parser rule matched").inc(
        diagnostics.parse.unparsed_lines)
    return registry


class OcrStage:
    """Stage I/II boundary: scan, recognize, correct, fall back."""

    def __init__(self, correction_enabled: bool) -> None:
        self.scanner = Scanner()
        self.engine = OcrEngine()
        self.corrector = OcrCorrector() if correction_enabled else None
        self.queue = ManualTranscriptionQueue()

    def process(self, document: RawDocument, rng: np.random.Generator,
                stats: OcrStageStats) -> list[str]:
        """Run one raw document through the OCR channel.

        ``stats`` gains this document's pages, lines and the pages and
        lines it sent to the manual queue.
        """
        queue = self.queue
        pages_before = queue.pages_transcribed
        lines_before = queue.lines_transcribed
        scanned = self.scanner.scan(
            document.document_id, document.lines, rng)
        result = self.engine.recognize(scanned, rng)
        lines = apply_fallback(scanned, result, queue)
        if self.corrector is not None:
            lines = self.corrector.correct_lines(lines)
        stats.documents += 1
        stats.pages += len(scanned.pages)
        stats.lines += len(lines)
        # Running mean of document confidences.
        n = stats.documents
        stats.mean_confidence += (
            result.mean_confidence - stats.mean_confidence) / n
        stats.fallback_pages += queue.pages_transcribed - pages_before
        stats.fallback_lines += queue.lines_transcribed - lines_before
        return lines
