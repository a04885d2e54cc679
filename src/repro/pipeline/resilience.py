"""Fault-tolerant execution for the Stage II-IV pipeline.

The paper's conclusion calls for assessing AV stacks "under fault
conditions via stochastic modeling and fault injection"; this module
gives the reproduction pipeline the same failure-isolation discipline
the paper studies in vehicles.  Every per-document and per-record step
runs through a :class:`StageGuard`, which applies a
:class:`FailurePolicy`:

* ``fail_fast``   — any unexpected stage exception aborts the run as a
  :class:`~repro.errors.PipelineError` (the pre-resilience behaviour,
  made explicit).
* ``quarantine``  — the failing unit of work is captured in a
  :class:`Quarantine` dead-letter store and the run continues.
* ``threshold``   — like ``quarantine``, but the run aborts once a
  stage's observed error rate exceeds ``max_error_rate`` (after
  ``min_samples`` attempts, so one early failure cannot trip it).

Transient faults (:class:`~repro.errors.TransientError`) are retried
with :func:`retry_with_backoff` before the policy is consulted; steps
that declare a fallback degrade instead of being quarantined (e.g. a
tagger crash degrades the record to the UNKNOWN tag).  On a clean run
none of this draws randomness or perturbs any seeded stream, so the
resilient pipeline is byte-identical to the unguarded one.
"""

from __future__ import annotations

import time
import traceback
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from typing import Any, TypeVar

from ..errors import (
    PipelineError,
    QuarantinedError,
    TransientError,
)
from ..rng import child_generator

T = TypeVar("T")

#: Recognized failure-policy modes.
POLICY_MODES = ("fail_fast", "quarantine", "threshold")

#: Quarantine entries keep at most this many characters of traceback.
TRACEBACK_LIMIT = 2000


@dataclass(frozen=True)
class FailurePolicy:
    """How the pipeline reacts to unexpected per-unit failures."""

    #: One of :data:`POLICY_MODES`.
    mode: str = "quarantine"
    #: ``threshold`` mode: abort when a stage's error rate (errors /
    #: attempts) exceeds this fraction.
    max_error_rate: float = 0.1
    #: ``threshold`` mode: attempts a stage must accumulate before the
    #: rate is enforced.
    min_samples: int = 20
    #: Bounded retries for :class:`~repro.errors.TransientError`.
    max_retries: int = 2
    #: Base backoff delay in seconds (0 keeps the pipeline fast; the
    #: exponential schedule and jitter scale from it).
    retry_base_delay: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in POLICY_MODES:
            raise ValueError(
                f"failure policy mode must be one of {POLICY_MODES}, "
                f"got {self.mode!r}")
        if not 0.0 <= self.max_error_rate <= 1.0:
            raise ValueError(
                f"max_error_rate {self.max_error_rate} outside [0, 1]")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")


# ----------------------------------------------------------------------
# Dead-letter store.
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class QuarantineEntry:
    """One failed unit of work, captured instead of lost."""

    unit_id: str
    stage: str
    error_type: str
    message: str
    traceback: str

    def to_dict(self) -> dict[str, str]:
        """JSON-friendly form (inverse of :meth:`from_dict`)."""
        return {
            "unit_id": self.unit_id,
            "stage": self.stage,
            "error_type": self.error_type,
            "message": self.message,
            "traceback": self.traceback,
        }

    @classmethod
    def from_dict(cls, data: dict[str, str]) -> "QuarantineEntry":
        """Rebuild an entry from its :meth:`to_dict` form."""
        return cls(
            unit_id=data["unit_id"],
            stage=data["stage"],
            error_type=data["error_type"],
            message=data["message"],
            traceback=data["traceback"],
        )

    @classmethod
    def from_exception(cls, unit_id: str, stage: str,
                       exc: BaseException) -> "QuarantineEntry":
        """Capture a live exception (with truncated traceback)."""
        tb = "".join(traceback.format_exception(
            type(exc), exc, exc.__traceback__))
        return cls(
            unit_id=unit_id, stage=stage,
            error_type=type(exc).__name__, message=str(exc),
            traceback=tb[-TRACEBACK_LIMIT:])


@dataclass
class Quarantine:
    """Dead-letter store for units of work the pipeline gave up on."""

    entries: list[QuarantineEntry] = field(default_factory=list)

    def add(self, entry: QuarantineEntry) -> None:
        """Append one dead-lettered unit of work."""
        self.entries.append(entry)

    def __len__(self) -> int:
        return len(self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)

    def __iter__(self) -> Iterable[QuarantineEntry]:
        return iter(self.entries)

    def by_stage(self) -> dict[str, int]:
        """Stage -> number of quarantined units."""
        counts: dict[str, int] = {}
        for entry in self.entries:
            counts[entry.stage] = counts.get(entry.stage, 0) + 1
        return dict(sorted(counts.items()))

    def unit_ids(self, stage: str | None = None) -> list[str]:
        """Ids of quarantined units, optionally for one stage."""
        return [e.unit_id for e in self.entries
                if stage is None or e.stage == stage]


# ----------------------------------------------------------------------
# Run health.
# ----------------------------------------------------------------------

@dataclass
class StageHealth:
    """Per-stage resilience counters."""

    attempts: int = 0
    errors: int = 0
    retries: int = 0
    degradations: int = 0
    quarantined: int = 0

    @property
    def error_rate(self) -> float:
        """Fraction of attempts that ultimately failed."""
        if self.attempts == 0:
            return 0.0
        return self.errors / self.attempts


@dataclass
class CheckpointHealth:
    """What the durability layer observed about one run.

    Populated by :class:`~repro.pipeline.checkpoint.CheckpointStore`
    and the runner's restore path; surfaced through
    :class:`RunHealth` and the CLI ``health:`` section.
    """

    #: Whether checkpointing was active for the run.
    enabled: bool = False
    #: Whether the run was started with resume requested.
    resumed: bool = False
    #: Units restored from the checkpoint instead of recomputed.
    restored_units: int = 0
    #: Units computed live (fresh, missing, or failed integrity).
    recomputed_units: int = 0
    #: Stage-level artifacts restored from the checkpoint.
    artifacts_restored: int = 0
    #: Journal lines / artifacts dropped for failing their checksum.
    corrupt_entries: int = 0
    #: The checkpoint directory was discarded as unusable on resume.
    stale: bool = False
    #: Why the directory was discarded (config change, version, ...).
    stale_reason: str | None = None
    #: Human-readable durability events (staleness, corruption).
    notes: list[str] = field(default_factory=list)

    def summary(self) -> dict[str, Any]:
        """JSON-friendly digest (mirrors :meth:`RunHealth.summary`)."""
        return {
            "enabled": self.enabled,
            "resumed": self.resumed,
            "restored_units": self.restored_units,
            "recomputed_units": self.recomputed_units,
            "artifacts_restored": self.artifacts_restored,
            "corrupt_entries": self.corrupt_entries,
            "stale": self.stale,
            "stale_reason": self.stale_reason,
            "notes": list(self.notes),
        }


@dataclass
class RunHealth:
    """Everything the resilience layer observed about one run."""

    stages: dict[str, StageHealth] = field(default_factory=dict)
    #: Human-readable descriptions of degraded-mode fallbacks.
    degradation_events: list[str] = field(default_factory=list)
    #: What the crash-safe checkpoint layer observed (disabled unless
    #: the run was given a checkpoint directory).
    checkpoint: CheckpointHealth = field(
        default_factory=CheckpointHealth)

    def stage(self, name: str) -> StageHealth:
        """The (auto-created) counters for one stage."""
        if name not in self.stages:
            self.stages[name] = StageHealth()
        return self.stages[name]

    @property
    def total_errors(self) -> int:
        return sum(s.errors for s in self.stages.values())

    @property
    def total_retries(self) -> int:
        return sum(s.retries for s in self.stages.values())

    @property
    def total_degradations(self) -> int:
        return sum(s.degradations for s in self.stages.values())

    @property
    def total_quarantined(self) -> int:
        return sum(s.quarantined for s in self.stages.values())

    @property
    def clean(self) -> bool:
        """Whether the run saw no errors and no degradations."""
        return self.total_errors == 0 and self.total_degradations == 0

    def summary(self) -> dict[str, Any]:
        """A JSON-friendly digest (used by the CLI health section)."""
        return {
            "clean": self.clean,
            "errors": self.total_errors,
            "retries": self.total_retries,
            "degradations": self.total_degradations,
            "quarantined": self.total_quarantined,
            "stages": {
                name: {
                    "attempts": s.attempts,
                    "errors": s.errors,
                    "retries": s.retries,
                    "degradations": s.degradations,
                    "quarantined": s.quarantined,
                    "error_rate": s.error_rate,
                }
                for name, s in sorted(self.stages.items())
            },
            "degradation_events": list(self.degradation_events),
            "checkpoint": self.checkpoint.summary(),
        }


# ----------------------------------------------------------------------
# Bounded retry.
# ----------------------------------------------------------------------

def retry_with_backoff(func: Callable[[], T], *,
                       retries: int,
                       seed: int,
                       stream: str,
                       base_delay: float = 0.0,
                       retry_on: tuple[type[BaseException], ...] = (
                           TransientError,),
                       sleep: Callable[[float], None] = time.sleep,
                       on_retry: Callable[[int, BaseException],
                                          None] | None = None) -> T:
    """Call ``func`` with up to ``retries`` retries on transient faults.

    The backoff schedule is exponential with deterministic jitter: the
    jitter generator is derived from ``(seed, stream)`` via
    :mod:`repro.rng`, and is only instantiated after the first failure,
    so a clean call consumes no randomness at all.  Non-``retry_on``
    exceptions propagate immediately.
    """
    rng = None
    attempt = 0
    while True:
        try:
            return func()
        except retry_on as exc:
            if attempt >= retries:
                raise
            if on_retry is not None:
                on_retry(attempt, exc)
            if rng is None:
                rng = child_generator(seed, f"retry:{stream}")
            if base_delay > 0.0:
                delay = base_delay * (2 ** attempt)
                delay *= 1.0 + rng.random()  # full jitter in [1, 2)
                sleep(delay)
            else:
                rng.random()  # keep the stream position deterministic
            attempt += 1


# ----------------------------------------------------------------------
# The guard.
# ----------------------------------------------------------------------

class StageGuard:
    """Runs per-unit work under a :class:`FailurePolicy`.

    One guard instance spans a pipeline run; it owns the
    :class:`RunHealth` counters and the :class:`Quarantine` store that
    the runner surfaces through diagnostics and the database.
    """

    def __init__(self, policy: FailurePolicy | None = None,
                 seed: int = 0,
                 health: RunHealth | None = None,
                 quarantine: Quarantine | None = None,
                 chaos: "Any | None" = None) -> None:
        self.policy = policy or FailurePolicy()
        self.seed = seed
        self.health = health if health is not None else RunHealth()
        self.quarantine = (quarantine if quarantine is not None
                           else Quarantine())
        #: Optional :class:`repro.pipeline.chaos.ChaosInjector`.
        self.chaos = chaos

    def run(self, stage: str, unit_id: str, func: Callable[[], T], *,
            fallback: Callable[[], T] | None = None,
            expected: tuple[type[BaseException], ...] = ()) -> T:
        """Execute one unit of work under the failure policy.

        ``expected`` exceptions are domain outcomes (e.g.
        :class:`~repro.errors.ParseError` for an unparseable report):
        they propagate unchanged and are not counted as resilience
        failures.  Everything else is retried if transient, then
        degraded via ``fallback`` if one is given, then handled per the
        policy mode — ``quarantine``/``threshold`` raise
        :class:`~repro.errors.QuarantinedError` for the caller to skip
        the unit, ``fail_fast`` raises
        :class:`~repro.errors.PipelineError`.
        """
        stats = self.health.stage(stage)
        stats.attempts += 1
        if self.chaos is not None:
            func = self.chaos.wrap(stage, unit_id, func)
        try:
            return retry_with_backoff(
                func,
                retries=self.policy.max_retries,
                seed=self.seed,
                stream=f"{stage}:{unit_id}",
                base_delay=self.policy.retry_base_delay,
                on_retry=lambda attempt, exc: self._count_retry(stats))
        except expected:
            stats.attempts -= 1  # domain outcome, not a failure
            raise
        except Exception as exc:  # noqa: BLE001 - the whole point
            return self._handle_failure(stage, unit_id, exc, stats,
                                        fallback)

    @staticmethod
    def _count_retry(stats: StageHealth) -> None:
        stats.retries += 1

    def _handle_failure(self, stage: str, unit_id: str,
                        exc: Exception, stats: StageHealth,
                        fallback: Callable[[], T] | None) -> T:
        stats.errors += 1
        if fallback is not None and self.policy.mode != "fail_fast":
            stats.degradations += 1
            self.health.degradation_events.append(
                f"{stage}: {unit_id} degraded after "
                f"{type(exc).__name__}: {exc}")
            return fallback()
        if self.policy.mode == "fail_fast":
            raise PipelineError(
                f"stage {stage!r} failed on {unit_id!r} under "
                f"fail_fast policy: {exc}") from exc
        stats.quarantined += 1
        self.quarantine.add(
            QuarantineEntry.from_exception(unit_id, stage, exc))
        if self.policy.mode == "threshold":
            self._enforce_threshold(stage, stats)
        raise QuarantinedError(
            f"stage {stage!r} quarantined {unit_id!r}: "
            f"{type(exc).__name__}: {exc}",
            unit_id=unit_id, stage=stage) from exc

    def check_threshold(self, stage: str) -> None:
        """Enforce the ``threshold`` policy on ``stage``'s counters.

        The serial path enforces the threshold inside
        :meth:`run` as each failure lands; the parallel coordinator
        calls this after merging a worker's health delta so the merged
        (run-global) counters — not any worker's local view — decide
        when the run aborts, at the same unit a serial run would.
        A non-``threshold`` policy makes this a no-op.
        """
        if self.policy.mode == "threshold":
            self._enforce_threshold(stage, self.health.stage(stage))

    def _enforce_threshold(self, stage: str,
                           stats: StageHealth) -> None:
        if stats.attempts < self.policy.min_samples:
            return
        if stats.error_rate > self.policy.max_error_rate:
            raise PipelineError(
                f"stage {stage!r} error rate "
                f"{stats.error_rate:.1%} exceeds the "
                f"{self.policy.max_error_rate:.1%} threshold after "
                f"{stats.attempts} attempts "
                f"({stats.errors} errors)")
