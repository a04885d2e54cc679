"""Stage-level fault injection for the pipeline itself.

Any per-unit step of the reproduction pipeline can be wrapped with
seeded exception, corruption, or latency injection, to prove that the
quarantine, retry, and threshold-abort paths of
:mod:`repro.pipeline.resilience` actually work.

Injection is deterministic: the decision for a given ``(stage,
unit_id)`` pair is drawn from its own child stream of the pipeline
seed, so whether a particular document gets a fault does not depend on
processing order, and two runs with the same seed inject the same
faults.  Kill points fire in the runner's one stage loop, at unit and
stage boundaries (:class:`CrashController`); a :class:`SimulatedCrash`
unwinds through the checkpoint store's close, so every unit completed
before the kill point is journaled and ``--resume`` recomputes only
the rest.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass
from typing import TypeVar

from ..errors import TransientError
from ..rng import child_generator

T = TypeVar("T")

#: Recognized injection kinds.
CHAOS_KINDS = ("exception", "transient", "corruption", "latency")

#: Named kill points a :class:`CrashPoint` may target.  The ``mid-*``
#: points fire halfway through the corresponding per-unit loop (so a
#: partially journaled stage is exercised); the bare names fire at the
#: stage's completion boundary; ``save`` fires inside
#: :meth:`~repro.pipeline.store.FailureDatabase.save`, after the
#: temporary file is written but before it is atomically published.
CRASH_POINTS = (
    "mid-parse-documents",
    "parse-documents",
    "accident-documents",
    "normalize",
    "dictionary",
    "mid-tag",
    "tag",
    "save",
)

class ChaosError(RuntimeError):
    """The fault the chaos harness injects.

    Deliberately *not* a :class:`~repro.errors.ReproError`: it models
    an arbitrary unexpected crash (the kind real messy corpora
    produce), so it exercises the resilience layer's generic handling
    rather than any domain-specific catch.
    """


class SimulatedCrash(BaseException):
    """A simulated *hard* process death (OOM kill, SIGKILL, power loss).

    Derives from :class:`BaseException`, not :class:`Exception`, so it
    cannot be caught by the resilience layer's quarantine/retry paths —
    exactly like a real ``kill -9``, nothing in the pipeline may
    survive it.  Only the crash-recovery tests (and the CLI process
    boundary) see it.
    """


@dataclass(frozen=True)
class CrashPoint:
    """Kill-point injection: die at a named pipeline boundary.

    Used by the crash-recovery tests and the CLI ``--crash-at`` flag to
    prove that a run killed anywhere leaves only a valid checkpoint
    directory behind, and that ``--resume`` then reproduces the
    uninterrupted run byte for byte.
    """

    #: One of :data:`CRASH_POINTS`.
    at: str

    def __post_init__(self) -> None:
        if self.at not in CRASH_POINTS:
            raise ValueError(
                f"crash point must be one of {CRASH_POINTS}, "
                f"got {self.at!r}")


class CrashController:
    """Raises :class:`SimulatedCrash` when its kill point is reached.

    A ``None`` point makes every check a no-op, so the production path
    costs one attribute test per boundary.
    """

    def __init__(self, point: CrashPoint | None = None) -> None:
        self.point = point

    def reached(self, name: str) -> None:
        """Die if ``name`` is the configured kill point."""
        if self.point is not None and self.point.at == name:
            raise SimulatedCrash(
                f"simulated hard crash at {name!r}")

    def reached_mid(self, name: str, index: int, total: int) -> None:
        """Die at ``name`` halfway through a loop of ``total`` units."""
        if self.point is not None and index == total // 2:
            self.reached(name)


@dataclass(frozen=True)
class ChaosConfig:
    """What to inject, where, and how often."""

    #: Stage name to target (``ocr``, ``parse``, ``normalize``,
    #: ``dictionary``, ``tag`` — anything a guard names).
    stage: str
    #: Probability a unit at that stage gets a fault.
    rate: float = 0.1
    #: One of :data:`CHAOS_KINDS`.
    kind: str = "exception"
    #: ``latency`` kind: seconds of injected delay per hit.
    latency_s: float = 0.001

    def __post_init__(self) -> None:
        if self.kind not in CHAOS_KINDS:
            raise ValueError(
                f"chaos kind must be one of {CHAOS_KINDS}, "
                f"got {self.kind!r}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"chaos rate {self.rate} outside [0, 1]")
        if self.latency_s < 0:
            raise ValueError("latency_s must be >= 0")


class ChaosInjector:
    """Wraps per-unit stage callables with seeded fault injection."""

    def __init__(self, config: ChaosConfig, seed: int = 0) -> None:
        self.config = config
        self.seed = seed
        self.injected = 0

    def wrap(self, stage: str, unit_id: str,
             func: Callable[[], T]) -> Callable[[], T]:
        """Return ``func`` with this injector's fault applied.

        Non-targeted stages pass through untouched.  The injection
        decision is re-drawn per call, so a retried transient fault can
        genuinely succeed on a later attempt.
        """
        if stage != self.config.stage:
            return func
        rng = child_generator(self.seed, f"chaos:{stage}:{unit_id}")

        def chaotic() -> T:
            if rng.random() >= self.config.rate:
                return func()
            self.injected += 1
            kind = self.config.kind
            if kind == "exception":
                raise ChaosError(
                    f"injected fault at {stage}:{unit_id}")
            if kind == "transient":
                raise TransientError(
                    f"injected transient fault at {stage}:{unit_id}")
            if kind == "latency":
                time.sleep(self.config.latency_s)
                return func()
            return _corrupt(func(), rng)

        return chaotic


def _corrupt(value: T, rng) -> T:
    """Garble a stage output in a type-appropriate way.

    Lists of strings (document lines) get a corrupted slice; strings
    get reversed; anything else is replaced with ``None`` — a shape
    violation downstream code must survive or quarantine.
    """
    if isinstance(value, list) and value \
            and all(isinstance(v, str) for v in value):
        corrupted = list(value)
        index = int(rng.integers(len(corrupted)))
        corrupted[index] = "\x00" + corrupted[index][::-1]
        return corrupted  # type: ignore[return-value]
    if isinstance(value, str):
        return value[::-1]  # type: ignore[return-value]
    return None  # type: ignore[return-value]
