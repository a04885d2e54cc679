"""The stable public facade — import :mod:`repro.api`, not internals.

Everything a downstream consumer (notebook, service, test, script)
needs lives here under one import, with the internal module layout
free to keep moving underneath:

* **Pipeline**: :func:`run_pipeline`, :func:`process_corpus`,
  :func:`build_corpus`, :class:`PipelineConfig`,
  :class:`PipelineResult`.
* **Persistence**: :func:`load_database`, :class:`FailureDatabase`.
* **Query & serving**: :class:`Query`, :class:`QueryEngine`,
  :class:`QueryResult`, :class:`QueryServer`.
* **Observability**: :class:`MetricsRegistry`,
  :func:`default_registry`, :class:`Tracer`, :func:`load_trace`,
  :func:`self_times` (see :mod:`repro.obs`).
* **Typed errors**: :class:`ReproError` and the public subclasses a
  caller is expected to catch.

Quickstart::

    from repro.api import PipelineConfig, QueryServer, run_pipeline

    result = run_pipeline(PipelineConfig(seed=2018))
    with QueryServer(result.database, port=0) as server:
        ...  # GET {server.url}/v1/query?metric=dpm&group_by=manufacturer

Anything importable from here is covered by the compatibility
promise: a name is never repurposed, and it is removed only together
with a verdict in the "Alternatives" table of ``docs/ARCHITECTURE.md``
and an entry in ``CHANGES.md`` naming it.  The CLI, docs, and tests
consume the library exclusively through this surface.
"""

from __future__ import annotations

from pathlib import Path

from .errors import (
    CorruptDatabaseError,
    DegradedModeWarning,
    InsufficientDataError,
    ParseError,
    PipelineError,
    QuarantinedError,
    QueryError,
    ReproError,
    TransientError,
)
from .obs import (
    MetricsRegistry,
    Observability,
    Tracer,
    default_registry,
    load_trace,
    self_times,
)
from .pipeline import (
    ChaosConfig,
    CrashPoint,
    FailureDatabase,
    FailurePolicy,
    IngestReport,
    IngestResult,
    PipelineConfig,
    PipelineResult,
    ServingChaos,
    ingest_corpus,
    process_corpus,
    run_pipeline,
)
from .query import (
    Query,
    QueryEngine,
    QueryResult,
    QueryServer,
    Snapshot,
    SnapshotManager,
)
from .serving import PreforkServer, serve_prefork
from .synth import SyntheticCorpus, generate_corpus

__all__ = [
    # Pipeline.
    "ChaosConfig",
    "CrashPoint",
    "FailurePolicy",
    "IngestReport",
    "IngestResult",
    "PipelineConfig",
    "PipelineResult",
    "ServingChaos",
    "build_corpus",
    "ingest_corpus",
    "process_corpus",
    "run_pipeline",
    "SyntheticCorpus",
    # Persistence.
    "FailureDatabase",
    "load_database",
    # Query & serving.
    "PreforkServer",
    "Query",
    "QueryEngine",
    "QueryResult",
    "QueryServer",
    "Snapshot",
    "SnapshotManager",
    "serve_prefork",
    # Observability.
    "MetricsRegistry",
    "Observability",
    "Tracer",
    "default_registry",
    "load_trace",
    "self_times",
    # Typed errors.
    "CorruptDatabaseError",
    "DegradedModeWarning",
    "InsufficientDataError",
    "ParseError",
    "PipelineError",
    "QuarantinedError",
    "QueryError",
    "ReproError",
    "TransientError",
]


def build_corpus(seed: int = 2018,
                 manufacturers: list[str] | None = None,
                 ) -> SyntheticCorpus:
    """Synthesize the raw Stage I corpus without processing it.

    A stable alias for :func:`repro.synth.generate_corpus`, named for
    what callers use it for: building the input to
    :func:`process_corpus` (e.g. to run several configs over one
    corpus).
    """
    return generate_corpus(seed, manufacturers)


def load_database(path: str | Path) -> FailureDatabase:
    """Load a persisted failure database, with typed failures.

    Unlike calling :meth:`FailureDatabase.load` directly, a missing
    or unreadable file (a directory, a file without read permission)
    surfaces as :class:`CorruptDatabaseError` too — callers (including
    every CLI verb) handle exactly one exception type for "this
    database is unusable", whatever the root cause.
    """
    try:
        return FailureDatabase.load(path)
    except FileNotFoundError as exc:
        raise CorruptDatabaseError(
            f"database file {str(path)!r} does not exist "
            "(run `repro run --out <path>` to create one)",
            path=str(path), reason="missing") from exc
    except OSError as exc:
        raise CorruptDatabaseError(
            f"database file {str(path)!r} could not be read: "
            f"{exc.strerror or exc}",
            path=str(path),
            reason=f"unreadable: {type(exc).__name__}") from exc
