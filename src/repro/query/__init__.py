"""Query & serving layer: read-optimized access to a failure database.

The pipeline (Stages I-IV) *produces* a
:class:`~repro.pipeline.store.FailureDatabase`; this package *serves*
it.  Four cooperating pieces:

* :mod:`~repro.query.index` — immutable, read-optimized indexes built
  once per database snapshot (by manufacturer, fault tag and failure
  category) with O(1) lookups instead of the list scans the raw
  database offers.
* :mod:`~repro.query.engine` — :class:`QueryEngine`: typed query
  objects (filter + group-by + metric), each answered by one kernel
  over the slice the index assembles, reusing the Stage IV
  :mod:`repro.analysis` functions as kernels so a served answer is
  byte-identical to the direct computation.
* :mod:`~repro.query.cache` — a bounded, thread-safe LRU result cache
  keyed by (database fingerprint, canonical query); a content change
  changes the fingerprint, so stale entries can never be served.
* :mod:`~repro.query.server` — a stdlib-only threaded JSON HTTP API
  (``/v1/healthz``, ``/v1/stats``, ``/v1/query``, ``/v1/metrics/*``,
  ``/v1/manufacturers``) plus the ``repro serve`` / ``repro query`` CLI
  verbs.

Quickstart::

    from repro.api import PipelineConfig, Query, QueryEngine, run_pipeline

    db = run_pipeline(PipelineConfig(seed=2018)).database
    engine = QueryEngine(db)
    result = engine.execute(Query(metric="dpm",
                                  group_by="manufacturer"))
    print(result.value["Waymo"]["aggregate_dpm"])
"""

# ``benchmarks/e2e`` imports these names through the package.
from .engine import Query, QueryEngine  # noqa: F401
