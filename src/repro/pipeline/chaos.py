"""Kill points for the pipeline: simulated hard crashes.

A run killed anywhere must leave only a valid checkpoint directory
behind, and ``--resume`` must then reproduce the uninterrupted run
byte for byte.  Kill points fire in the runner's one stage loop, at
unit and stage boundaries (:class:`CrashController`); a
:class:`SimulatedCrash` unwinds through the checkpoint store's close,
so every unit completed before the kill point is journaled and
``--resume`` recomputes only the rest.  The CLI's ``--crash-at`` flag
kills a real process this way.

Per-unit faults are not injected here: a test that needs one patches
the guard (``tests/faults.py``), so the build path carries no fault
hooks.
"""

from __future__ import annotations

from dataclasses import dataclass

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


class SimulatedCrash(BaseException):
    """A simulated *hard* process death (OOM kill, SIGKILL, power loss).

    Derives from :class:`BaseException`, not :class:`Exception`, so it
    cannot be caught by the resilience layer's quarantine path —
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
