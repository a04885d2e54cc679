"""The stable public facade, and the only module that re-exports.

Every other name is imported from the module that defines it: a
package ``__init__`` re-exports nothing, which
``tests/test_reachability.py::test_package_inits_reexport_nothing``
enforces.  This facade gathers what a downstream consumer (notebook,
service, script) needs under one import, with the internal module
layout free to keep moving underneath:

* **Pipeline**: :func:`run_pipeline`, :func:`process_corpus`,
  :func:`generate_corpus`, :class:`PipelineConfig`,
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
and an entry in ``CHANGES.md`` naming it.
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
from .obs.metrics import MetricsRegistry, default_registry
from .obs.runtime import Observability
from .obs.trace import Tracer, load_trace, self_times
from .pipeline.chaos import ChaosConfig, CrashPoint, ServingChaos
from .pipeline.config import PipelineConfig
from .pipeline.ingest import IngestReport, IngestResult, ingest_corpus
from .pipeline.resilience import FailurePolicy
from .pipeline.runner import PipelineResult, process_corpus, run_pipeline
from .pipeline.store import FailureDatabase
from .query.engine import Query, QueryEngine, QueryResult
from .query.server import QueryServer
from .query.snapshot import Snapshot, SnapshotManager
from .serving.prefork import PreforkServer, serve_prefork
from .synth.dataset import SyntheticCorpus, generate_corpus

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
    "generate_corpus",
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
