"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class at pipeline boundaries while the
individual stages raise more specific subclasses.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class CalibrationError(ReproError):
    """A calibration constant is missing or inconsistent."""


class SynthesisError(ReproError):
    """The synthetic corpus generator was asked for something impossible."""


class OcrError(ReproError):
    """The OCR substrate failed to process a document."""


class ParseError(ReproError):
    """A raw report could not be parsed into canonical records."""

    def __init__(self, message: str, *, line: str | None = None,
                 manufacturer: str | None = None) -> None:
        super().__init__(message)
        self.line = line
        self.manufacturer = manufacturer

    def __str__(self) -> str:  # pragma: no cover - formatting only
        base = super().__str__()
        parts = [base]
        if self.manufacturer is not None:
            parts.append(f"manufacturer={self.manufacturer!r}")
        if self.line is not None:
            parts.append(f"line={self.line!r}")
        return " | ".join(parts)


class FieldCoercionError(ParseError):
    """A field value could not be coerced to its canonical type."""


class UnknownFormatError(ParseError):
    """No registered parser recognizes the report format."""


class StpaError(ReproError):
    """The STPA control-structure model was queried inconsistently."""


class PipelineError(ReproError):
    """A pipeline stage failed or stages were run out of order."""


class QuarantinedError(PipelineError):
    """A unit of work was moved to the quarantine dead-letter store.

    Raised by the resilience layer so the caller can skip the unit and
    continue; the original exception is preserved as ``__cause__`` and
    in the :class:`~repro.pipeline.resilience.QuarantineEntry`.
    """

    def __init__(self, message: str, *, unit_id: str | None = None,
                 stage: str | None = None) -> None:
        super().__init__(message)
        self.unit_id = unit_id
        self.stage = stage


class CorruptDatabaseError(ReproError):
    """A persisted database (or checkpoint artifact) failed integrity.

    Raised by :meth:`repro.pipeline.store.FailureDatabase.from_json` /
    :meth:`~repro.pipeline.store.FailureDatabase.load` when the
    on-disk JSON is torn, malformed, not UTF-8, fails its checksum,
    or is missing required fields — instead of surfacing raw
    ``KeyError`` / ``orjson.JSONDecodeError``.  ``path`` names the
    offending file (when known) and ``reason`` the specific integrity
    failure.
    """

    def __init__(self, message: str, *, path: str | None = None,
                 reason: str | None = None) -> None:
        super().__init__(message)
        self.path = path
        self.reason = reason

    def __str__(self) -> str:  # pragma: no cover - formatting only
        base = super().__str__()
        parts = [base]
        if self.path is not None:
            parts.append(f"path={self.path!r}")
        if self.reason is not None:
            parts.append(f"reason={self.reason!r}")
        return " | ".join(parts)


class QueryError(ReproError, ValueError):
    """A query handed to the query/serving layer is invalid.

    Unknown metric, unsupported group-by, malformed filter, and so on.
    Also a :class:`ValueError`, so the CLI's existing invalid-input
    handling (exit code 2) applies unchanged; the HTTP layer maps it
    to a 400 response.
    """


class DegradedModeWarning(UserWarning):
    """The pipeline fell back to a reduced-fidelity mode.

    A warning, not an error: the run continues, but an output was
    produced by a fallback (e.g. the seed dictionary instead of the
    corpus-expanded one) and downstream consumers may want to know.
    """


class AnalysisError(ReproError):
    """A statistical analysis was asked to operate on unusable data."""


class InsufficientDataError(AnalysisError):
    """Too few observations to compute the requested statistic."""
