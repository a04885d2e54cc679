"""repro — a reproduction of *Hands Off the Wheel in Autonomous
Vehicles? A Systems Perspective on over a Million Miles of Field Data*
(Banerjee et al., DSN 2018).

The library implements the paper's full pipeline over a calibrated
synthetic CA DMV corpus:

* Stage I  — :mod:`repro.synth`: corpus synthesis (the data substitute).
* Stage I' — :mod:`repro.ocr`: the scanned-document/OCR channel.
* Stage II — :mod:`repro.parsing`: per-manufacturer parsing and
  normalization into canonical records.
* Stage III — :mod:`repro.nlp`: failure dictionary + voting tagger.
* Stage IV — :mod:`repro.analysis`: the statistical analyses.
* :mod:`repro.stpa` — the STPA control-structure model of Fig. 3.
* :mod:`repro.reporting` — regenerates every table and figure.

Quickstart::

    from repro import run_pipeline, PipelineConfig
    from repro.reporting import run_experiment

    result = run_pipeline(PipelineConfig(seed=2018))
    print(run_experiment("table7", result.database).render())
"""

from .errors import (
    AnalysisError,
    CalibrationError,
    CorruptDatabaseError,
    DegradedModeWarning,
    FieldCoercionError,
    InsufficientDataError,
    OcrError,
    ParseError,
    PipelineError,
    QuarantinedError,
    QueryError,
    ReproError,
    StpaError,
    SynthesisError,
    TransientError,
    UnknownFormatError,
)
from .pipeline import (
    ChaosConfig,
    CheckpointStore,
    CrashPoint,
    FailureDatabase,
    FailurePolicy,
    PipelineConfig,
    PipelineResult,
    Quarantine,
    RunHealth,
    process_corpus,
    run_pipeline,
)
from .rng import DEFAULT_SEED
from .synth import SyntheticCorpus, generate_corpus
from .taxonomy import FailureCategory, FaultTag, Modality

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "api",
    "DEFAULT_SEED",
    "FailureCategory",
    "FaultTag",
    "Modality",
    "ChaosConfig",
    "CheckpointStore",
    "CrashPoint",
    "FailureDatabase",
    "FailurePolicy",
    "PipelineConfig",
    "PipelineResult",
    "Quarantine",
    "RunHealth",
    "SyntheticCorpus",
    "generate_corpus",
    "process_corpus",
    "run_pipeline",
    # Errors.
    "ReproError",
    "CalibrationError",
    "SynthesisError",
    "OcrError",
    "ParseError",
    "FieldCoercionError",
    "UnknownFormatError",
    "StpaError",
    "PipelineError",
    "TransientError",
    "QuarantinedError",
    "CorruptDatabaseError",
    "DegradedModeWarning",
    "AnalysisError",
    "InsufficientDataError",
    "QueryError",
    # Query & serving layer.
    "Query",
    "QueryEngine",
    "QueryResult",
    "QueryServer",
]

# The query layer embeds __version__ in its HTTP responses, so it can
# only be imported once this module has bound it (kept last on
# purpose — not an oversight).
from .query import (  # noqa: E402
    Query,
    QueryEngine,
    QueryResult,
    QueryServer,
)


def __getattr__(name: str):
    """Lazily expose the :mod:`repro.api` facade as ``repro.api``.

    The facade pulls in the observability layer; loading it on first
    attribute access keeps ``import repro`` itself lean and cycle-free
    while ``repro.api`` stays reachable without an explicit submodule
    import.
    """
    if name == "api":
        import importlib

        return importlib.import_module(".api", __name__)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}")
