"""Observability layer: structured tracing and metrics.

The pipeline (Stages I-IV), the resilience layer, and the query
server all *measure the system*; this package lets the system measure
**itself** — zero external dependencies, and a true no-op when
disabled:

* :mod:`~repro.obs.trace` — :class:`Tracer`: hierarchical spans
  (run → stage → unit) with monotonic timings, attributes, and
  status, persisted as crash-safe JSONL (every flush is an atomic
  whole-file publish, so a killed run leaves a valid prefix).
* :mod:`~repro.obs.metrics` — :class:`MetricsRegistry`: thread-safe
  counters/gauges/histograms with fixed bucket boundaries, mergeable
  across worker processes, rendered as Prometheus text by the query
  server's ``/metrics`` endpoint.
* :mod:`~repro.obs.runtime` — :class:`Observability`: the per-run
  bundle the pipeline threads through its stage loops.

Quickstart::

    from repro.api import PipelineConfig, run_pipeline

    result = run_pipeline(PipelineConfig(
        trace_dir="./traces", metrics_enabled=True))
    # ./traces/trace.jsonl now holds the span tree;
    # `repro trace ./traces/trace.jsonl` renders the self-time table.
"""

# ``benchmarks/e2e`` imports these names through the package.
from .trace import Tracer, self_times  # noqa: F401
