"""The per-run observability context the pipeline threads through.

One :class:`Observability` object bundles the run's tracer and its
stage clock.  A disabled context holds
:data:`~repro.obs.trace.NULL_TRACER`, so the instrumented runner costs
one branch per unit when tracing is off — ``benchmarks/bench_obs.py``
holds that to ~0%.  Its :meth:`stage` timer is the run's one stage
clock: the stage span and the run's per-stage wall times come from it,
and each computed unit's span (:meth:`unit`) covers that unit's own
work.
Metrics are not recorded here: the runner renders them once, when the
run ends, from its :class:`~repro.pipeline.stages.PipelineDiagnostics`
(see :func:`~repro.pipeline.stages.render_metrics`).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Iterator

from .trace import NULL_TRACER, NullTracer, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..pipeline.config import PipelineConfig


class Observability:
    """Tracer + stage clock for one pipeline run."""

    __slots__ = ("tracer", "stage_wall_s")

    def __init__(self, tracer: Tracer | NullTracer = NULL_TRACER,
                 stage_wall_s: dict[str, float] | None = None) -> None:
        self.tracer = tracer
        #: Stage name -> summed wall seconds, filled by :meth:`stage`.
        self.stage_wall_s = {} if stage_wall_s is None else stage_wall_s

    @classmethod
    def for_run(cls, config: "PipelineConfig",
                stage_wall_s: dict[str, float] | None = None,
                ) -> "Observability":
        """The context a :class:`PipelineConfig` asks for.

        Stage wall times accumulate into ``stage_wall_s`` (the run's
        :class:`~repro.pipeline.stages.PipelineDiagnostics` dict)
        whether or not tracing is on.
        """
        tracer = (Tracer(config.trace_path) if config.tracing_active
                  else NULL_TRACER)
        return cls(tracer, stage_wall_s)

    @property
    def active(self) -> bool:
        """Whether any instrumentation is live."""
        return self.tracer.enabled

    # ------------------------------------------------------------------
    # Hot-path helpers.
    # ------------------------------------------------------------------

    @contextmanager
    def stage(self, name: str, **attrs: Any) -> Iterator[None]:
        """Time one stage once: the span and ``stage_wall_s`` share
        the reading; flushes after.

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
            self.tracer.flush()

    def unit(self, stage: str, unit_id: str) -> Any:
        """A span around one computed unit's own work."""
        return self.tracer.span(unit_id, kind="unit", stage=stage)

    def restored_unit(self, stage: str, unit_id: str) -> None:
        """Record a unit adopted from a checkpoint (zero duration)."""
        if self.tracer.enabled:
            self.tracer.record(unit_id, "unit", 0.0, stage=stage,
                               restored=True)

    def close(self) -> None:
        """Final trace flush (safe after a simulated crash)."""
        self.tracer.close()
