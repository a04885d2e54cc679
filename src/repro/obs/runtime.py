"""The per-run observability context the pipeline threads through.

One :class:`Observability` object bundles the run's tracer and (when
enabled) metrics registry, plus the pre-resolved hot-path handles the
stage loops use.  A disabled context is a handful of ``None``/
:data:`~repro.obs.trace.NULL_TRACER` fields, so the instrumented
runner costs one branch per unit when observability is off —
``benchmarks/bench_obs.py`` holds that to ~0%.  Its :meth:`stage`
timer is the run's one stage clock: the stage span, the
stage-duration histogram and the run's per-stage wall times all come
from it.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Iterator

from .metrics import (
    STAGE_DURATION,
    UNITS_TOTAL,
    MetricsRegistry,
    default_registry,
)
from .trace import NULL_TRACER, NullTracer, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..pipeline.config import PipelineConfig


class Observability:
    """Tracer + metrics for one pipeline run (both optional)."""

    __slots__ = ("tracer", "registry", "stage_wall_s", "_stage_hist",
                 "_units")

    def __init__(self, tracer: Tracer | NullTracer = NULL_TRACER,
                 registry: MetricsRegistry | None = None,
                 stage_wall_s: dict[str, float] | None = None) -> None:
        self.tracer = tracer
        self.registry = registry
        #: Stage name -> summed wall seconds, filled by :meth:`stage`.
        self.stage_wall_s = {} if stage_wall_s is None else stage_wall_s
        self._stage_hist = None
        self._units = None
        if registry is not None:
            self._stage_hist = registry.histogram(
                STAGE_DURATION,
                "Coordinator wall time per pipeline stage",
                ("stage",))
            self._units = registry.counter(
                UNITS_TOTAL,
                "Units of work processed per stage",
                ("stage",))

    @classmethod
    def off(cls) -> "Observability":
        """A fully disabled context."""
        return cls()

    @classmethod
    def for_run(cls, config: "PipelineConfig",
                registry: MetricsRegistry | None = None,
                stage_wall_s: dict[str, float] | None = None,
                ) -> "Observability":
        """The context a :class:`PipelineConfig` asks for.

        Each run records into a fresh registry (unless an explicit one
        is given) so its diagnostics snapshot covers exactly this run;
        :meth:`publish` folds the run into the process-global default
        registry afterwards so an in-process query server still
        exposes cumulative pipeline series on ``/metrics``.  Stage
        wall times accumulate into ``stage_wall_s`` (the run's
        :class:`~repro.pipeline.parallel.ParallelStats` dict) whether
        or not anything else is on.
        """
        path = config.trace_path
        tracer = Tracer(path) if config.tracing_active else NULL_TRACER
        if not config.metrics_enabled:
            registry = None
        elif registry is None:
            registry = MetricsRegistry()
        return cls(tracer, registry, stage_wall_s)

    def publish(self) -> None:
        """Fold this run's metrics into the process-global registry.

        No-op when metrics are off or when the run already recorded
        straight into the default registry (an explicit
        ``registry=default_registry()``).
        """
        if self.registry is None:
            return
        default = default_registry()
        if self.registry is not default:
            default.merge(self.registry.dump())

    @property
    def active(self) -> bool:
        """Whether any instrumentation is live."""
        return self.tracer.enabled or self.registry is not None

    # ------------------------------------------------------------------
    # Hot-path helpers.
    # ------------------------------------------------------------------

    @contextmanager
    def stage(self, name: str, **attrs: Any) -> Iterator[None]:
        """Time one stage once: span, duration histogram and
        ``stage_wall_s`` share the reading; flushes after.

        The flush at every stage boundary is what makes a crash-killed
        trace a valid JSONL prefix of the run.
        """
        started = time.perf_counter()
        try:
            with self.tracer.span(name, kind="stage", **attrs):
                yield
        finally:
            elapsed = time.perf_counter() - started
            self.stage_wall_s[name] = (
                self.stage_wall_s.get(name, 0.0) + elapsed)
            if self._stage_hist is not None:
                self._stage_hist.labels(name).observe(elapsed)
            self.tracer.flush()

    def unit(self, stage: str, unit_id: str, elapsed: float) -> None:
        """Record a computed unit from its shipped wall time."""
        if self.tracer.enabled:
            self.tracer.record(unit_id, "unit", elapsed, stage=stage)

    def restored_unit(self, stage: str, unit_id: str) -> None:
        """Record a unit adopted from a checkpoint (zero duration)."""
        if self.tracer.enabled:
            self.tracer.record(unit_id, "unit", 0.0, stage=stage,
                               restored=True)

    def unit_counter(self, stage: str):
        """A pre-resolved per-stage unit counter (None when off)."""
        if self._units is None:
            return None
        return self._units.labels(stage)

    def close(self) -> None:
        """Final trace flush (safe after a simulated crash)."""
        self.tracer.close()
