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

import threading
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

#: Kill points inside a serving-layer snapshot swap (see
#: :class:`~repro.query.snapshot.SnapshotManager`).  ``swap-load``
#: fires before the candidate file is read, ``swap-build`` after the
#: candidate decoded but before its index is built, ``swap-publish``
#: after the index is built but before the generation pointer moves —
#: the last instant a crash could possibly tear the swap.  A crash at
#: any of them must leave the previous snapshot serving untouched.
SWAP_POINTS = (
    "swap-load",
    "swap-build",
    "swap-publish",
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


@dataclass
class ServingChaos:
    """Fault injection for the always-on serving layer.

    Where :class:`ChaosInjector` attacks the *pipeline*, this attacks
    the *serving* lifecycle: candidate databases can be garbled before
    they are decoded (``corrupt_candidate``), a snapshot swap can die
    at any :data:`SWAP_POINTS` boundary (``crash_at``), and query
    handling can be slowed to exercise deadlines and admission
    control (``slow_query_s``/``slow_query_rate``).

    Slow-query decisions are drawn from a seeded child stream so a
    chaos run is reproducible; corruption is deterministic (the same
    candidate file always garbles the same way).
    """

    #: Die at this swap boundary (one of :data:`SWAP_POINTS`).
    crash_at: str | None = None
    #: Garble every candidate database file before it is decoded.
    corrupt_candidate: bool = False
    #: Injected per-query delay in seconds (when the rate draws a hit).
    slow_query_s: float = 0.0
    #: Probability a query gets the injected delay.
    slow_query_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.crash_at is not None and self.crash_at not in SWAP_POINTS:
            raise ValueError(
                f"crash_at must be one of {SWAP_POINTS}, "
                f"got {self.crash_at!r}")
        if not 0.0 <= self.slow_query_rate <= 1.0:
            raise ValueError(
                f"slow_query_rate {self.slow_query_rate} outside [0, 1]")
        if self.slow_query_s < 0:
            raise ValueError("slow_query_s must be >= 0")
        self._rng = child_generator(self.seed, "serving-chaos")
        self._lock = threading.Lock()
        self.injected_corruptions = 0
        self.injected_delays = 0

    def reached(self, point: str) -> None:
        """Die hard if ``point`` is the configured swap kill point."""
        if self.crash_at == point:
            raise SimulatedCrash(f"simulated hard crash at {point!r}")

    def corrupt_text(self, data: bytes) -> bytes:
        """Garble a candidate database file's bytes (torn-file
        simulation).

        Truncates the tail and prepends a NUL — both JSON decoding and
        any checksum verification must fail, exactly like a torn or
        bit-rotted file; the serving layer must quarantine it.
        """
        if not self.corrupt_candidate:
            return data
        self.injected_corruptions += 1
        return b"\x00" + data[: max(1, len(data) // 2)]

    def maybe_slow_query(self) -> float:
        """Sleep the injected latency (if drawn); returns the delay."""
        if self.slow_query_s <= 0 or self.slow_query_rate <= 0:
            return 0.0
        # The rng and counters are shared across handler threads.
        with self._lock:
            hit = self._rng.random() < self.slow_query_rate
            if hit:
                self.injected_delays += 1
        if not hit:
            return 0.0
        time.sleep(self.slow_query_s)
        return self.slow_query_s


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
