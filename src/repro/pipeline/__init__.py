"""End-to-end pipeline: Stage I (data) through Stage IV inputs.

``run_pipeline`` wires everything together: synthesize (or accept) a
raw corpus, push it through the OCR channel, parse and normalize it,
tag every narrative with the NLP engine, and assemble the consolidated
failure database that the statistical analyses consume.  The
:mod:`~repro.pipeline.resilience` layer isolates per-unit failures
(quarantine, bounded retry, degraded modes), the
:mod:`~repro.pipeline.checkpoint` layer journals completed work so a
killed run resumes instead of restarting, and the
:mod:`~repro.pipeline.chaos` harness injects faults — including
simulated hard crashes — to prove both.
"""

from .chaos import (
    CRASH_POINTS,
    SWAP_POINTS,
    ChaosConfig,
    ChaosError,
    ChaosInjector,
    CrashController,
    CrashPoint,
    ServingChaos,
    SimulatedCrash,
)
from .checkpoint import (
    CheckpointStore,
    atomic_write_text,
    config_fingerprint,
)
from .config import PipelineConfig
from .ingest import (
    IngestReport,
    IngestResult,
    document_digest,
    ingest_corpus,
)
from .resilience import (
    CheckpointHealth,
    FailurePolicy,
    Quarantine,
    QuarantineEntry,
    RunHealth,
    StageGuard,
    retry_transient,
)
from .store import FailureDatabase
from .stages import PipelineDiagnostics
from .runner import PipelineResult, run_pipeline, process_corpus

__all__ = [
    "CRASH_POINTS",
    "ChaosConfig",
    "ChaosError",
    "ChaosInjector",
    "CheckpointHealth",
    "CheckpointStore",
    "CrashController",
    "CrashPoint",
    "FailurePolicy",
    "IngestReport",
    "IngestResult",
    "PipelineConfig",
    "FailureDatabase",
    "PipelineDiagnostics",
    "PipelineResult",
    "Quarantine",
    "QuarantineEntry",
    "RunHealth",
    "SWAP_POINTS",
    "ServingChaos",
    "SimulatedCrash",
    "StageGuard",
    "atomic_write_text",
    "config_fingerprint",
    "document_digest",
    "ingest_corpus",
    "retry_transient",
    "run_pipeline",
    "process_corpus",
]
