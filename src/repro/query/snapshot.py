"""Atomic snapshot lifecycle for the always-on query service.

The engine (:mod:`repro.query.engine`) already makes a *single* swap
safe — each request captures one index reference and keys the cache
off that snapshot's fingerprint.  This module owns everything around
the swap:

* :class:`Snapshot` — one immutable generation of the serving state:
  the engine, its fingerprint, where it came from, when it went live.
* :class:`SnapshotManager` — holds the live snapshot behind a
  generation-counted atomic pointer.  Candidates arrive either as
  in-memory databases (:meth:`~SnapshotManager.swap_database`, the
  ingestion path) or as files (:meth:`~SnapshotManager.load`, the
  watch-mode path); a corrupt or torn candidate
  (:class:`~repro.errors.CorruptDatabaseError`) is **quarantined** —
  counted, remembered, and the last-good snapshot keeps serving.  A
  hard crash mid-swap (the chaos harness's
  :class:`~repro.pipeline.chaos.SimulatedCrash` at any
  :data:`~repro.pipeline.chaos.SWAP_POINTS` boundary) leaves the
  pointer untouched: the expensive work (read, decode, index build)
  happens entirely *before* the one-reference publish.
* :class:`DirectoryWatcher` — stat-based polling for new database
  drops, feeding ``repro serve --watch``.

Metrics (when a registry is attached): swap counter by outcome
(``ok`` / ``noop`` / ``quarantined``), a generation gauge, and a
quarantine counter — the ``/metrics`` scrape tells the whole story of
a chaotic afternoon.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable

from ..errors import CorruptDatabaseError
from ..obs.metrics import (
    MetricsRegistry,
    SNAPSHOT_GENERATION,
    SNAPSHOT_QUARANTINED,
    SNAPSHOT_SWAPS,
)
from ..pipeline.chaos import ServingChaos
from ..pipeline.checkpoint import sha256_text
from ..pipeline.store import FailureDatabase
from .engine import QueryEngine


@dataclass(frozen=True)
class Snapshot:
    """One immutable generation of the serving state."""

    #: Monotonic generation counter (1 = the snapshot served at boot).
    generation: int
    #: The engine answering queries for this generation.
    engine: QueryEngine
    #: Content fingerprint of the generation's database.
    fingerprint: str
    #: Where the database came from (a path, or ``None`` for in-memory).
    source: str | None
    #: ``time.time()`` when this generation went live.
    activated_at: float

    def to_dict(self) -> dict[str, Any]:
        """JSON-able description (the ``/readyz`` snapshot section)."""
        return {
            "generation": self.generation,
            "fingerprint": self.fingerprint,
            "source": self.source,
            "activated_at": self.activated_at,
        }


class SnapshotManager:
    """Owns the live snapshot behind a generation-counted atomic swap.

    Readers call :meth:`current` (one attribute read — atomic under
    the GIL) and use that snapshot's engine for the whole request;
    they never lock.  Swappers serialize on an internal lock, build
    the complete replacement snapshot off to the side, and publish it
    with a single reference assignment — there is no instant at which
    a reader can observe a half-swapped state.
    """

    def __init__(self, db: FailureDatabase | QueryEngine, *,
                 source: str | None = None, cache_size: int = 256,
                 registry: MetricsRegistry | None = None,
                 chaos: ServingChaos | None = None) -> None:
        engine = (db if isinstance(db, QueryEngine)
                  else QueryEngine(db, cache_size=cache_size))
        self._cache_size = cache_size
        self._chaos = chaos
        self._lock = threading.Lock()
        self._quarantined = 0
        self._last_error: str | None = None
        self._snapshot = Snapshot(
            generation=1, engine=engine,
            fingerprint=engine.fingerprint, source=source,
            activated_at=time.time())
        self._swaps = None
        self._generation_gauge = None
        self._quarantine_counter = None
        if registry is not None:
            self._swaps = registry.counter(
                SNAPSHOT_SWAPS, "Snapshot swap attempts by outcome.",
                ("outcome",))
            self._generation_gauge = registry.gauge(
                SNAPSHOT_GENERATION,
                "Generation of the currently served snapshot.")
            self._generation_gauge.set(1)
            self._quarantine_counter = registry.counter(
                SNAPSHOT_QUARANTINED,
                "Candidate databases quarantined as corrupt.")

    # ------------------------------------------------------------------
    # Reader side.
    # ------------------------------------------------------------------

    def current(self) -> Snapshot:
        """The live snapshot (one atomic read; capture once per
        request and use it throughout)."""
        return self._snapshot

    @property
    def engine(self) -> QueryEngine:
        """The live snapshot's engine."""
        return self._snapshot.engine

    @property
    def generation(self) -> int:
        """The live snapshot's generation."""
        return self._snapshot.generation

    @property
    def fingerprint(self) -> str:
        """The live snapshot's fingerprint."""
        return self._snapshot.fingerprint

    @property
    def degraded(self) -> bool:
        """Whether the last swap attempt was quarantined (we are
        still serving, but from an older generation than offered)."""
        return self._last_error is not None

    @property
    def last_error(self) -> str | None:
        """Why the last candidate was quarantined, if it was."""
        return self._last_error

    def stats(self) -> dict[str, Any]:
        """JSON-able manager state (``/readyz`` body, tests)."""
        snapshot = self._snapshot
        return {
            "snapshot": snapshot.to_dict(),
            "degraded": self.degraded,
            "quarantined": self._quarantined,
            "last_error": self._last_error,
        }

    # ------------------------------------------------------------------
    # Swapper side.
    # ------------------------------------------------------------------

    def swap_database(self, db: FailureDatabase, *,
                      source: str | None = None) -> bool:
        """Swap in an in-memory candidate database.

        Returns whether a new generation went live.  An unchanged
        fingerprint is a no-op (but clears the degraded flag — the
        offered content *is* what we serve).  The index build happens
        before the publish, so readers never see a partial swap.
        """
        with self._lock:
            fingerprint = db.fingerprint()
            if fingerprint == self._snapshot.fingerprint:
                self._last_error = None
                self._count_swap("noop")
                return False
            if self._chaos is not None:
                self._chaos.reached("swap-build")
            engine = self._build_engine(db)
            if self._chaos is not None:
                self._chaos.reached("swap-publish")
            self._publish(engine, fingerprint, source)
            return True

    def swap_engine(self, engine: QueryEngine, *,
                    source: str | None = None) -> bool:
        """Publish a prebuilt engine — the O(1) swap.

        The caller already paid for the index build (and the engine
        carries its own fingerprint), so the only work under the lock
        is the fingerprint comparison and the pointer publish.  This
        is the path for callers that prepare the replacement entirely
        off the serving path: on a busy single-core box, even a
        swapper *thread* building an index steals the GIL from
        request handlers, so build first, publish last.
        """
        with self._lock:
            fingerprint = engine.fingerprint
            if fingerprint == self._snapshot.fingerprint:
                self._last_error = None
                self._count_swap("noop")
                return False
            if self._chaos is not None:
                self._chaos.reached("swap-publish")
            self._publish(engine, fingerprint, source)
            return True

    def load(self, path: str | Path) -> bool:
        """Read, verify, and swap in a candidate database file.

        Returns whether a new generation went live.  A corrupt or
        torn candidate (bad checksum sidecar, malformed JSON, wrong
        structure) is quarantined: counted, remembered as
        :attr:`last_error`, and ``False`` is returned while the
        last-good snapshot keeps serving.  Errors other than
        corruption (e.g. the file vanished between poll and read)
        propagate — the caller decides whether that is fatal.
        """
        path = Path(path)
        with self._lock:
            if self._chaos is not None:
                self._chaos.reached("swap-load")
            try:
                db = self._read_candidate(path)
            except CorruptDatabaseError as exc:
                self._quarantine(str(exc))
                return False
            fingerprint = db.fingerprint()
            if fingerprint == self._snapshot.fingerprint:
                self._last_error = None
                self._count_swap("noop")
                return False
            if self._chaos is not None:
                self._chaos.reached("swap-build")
            engine = self._build_engine(db)
            if self._chaos is not None:
                self._chaos.reached("swap-publish")
            self._publish(engine, fingerprint, str(path))
            return True

    # ------------------------------------------------------------------
    # Internals (all called under the swap lock).
    # ------------------------------------------------------------------

    def _build_engine(self, db: FailureDatabase) -> QueryEngine:
        """Build a replacement engine with this manager's cache size."""
        return QueryEngine(db, cache_size=self._cache_size)

    def _read_candidate(self, path: Path) -> FailureDatabase:
        """Read + verify one candidate file (chaos garbles pre-decode,
        exactly where a torn write would)."""
        text = path.read_text(encoding="utf-8")
        if self._chaos is not None:
            text = self._chaos.corrupt_text(text)
        sidecar = path.with_name(path.name + ".sha256")
        if sidecar.exists():
            expected = sidecar.read_text(encoding="utf-8").split()
            if not expected or sha256_text(text) != expected[0]:
                raise CorruptDatabaseError(
                    f"candidate database {path} does not match its "
                    ".sha256 sidecar", path=str(path),
                    reason="checksum mismatch")
        return FailureDatabase.from_json(text, source=path)

    def _publish(self, engine: QueryEngine, fingerprint: str,
                 source: str | None) -> None:
        snapshot = Snapshot(
            generation=self._snapshot.generation + 1,
            engine=engine, fingerprint=fingerprint, source=source,
            activated_at=time.time())
        self._snapshot = snapshot  # the one-reference publish
        self._last_error = None
        self._count_swap("ok")
        if self._generation_gauge is not None:
            self._generation_gauge.set(snapshot.generation)

    def _quarantine(self, reason: str) -> None:
        self._quarantined += 1
        self._last_error = reason
        self._count_swap("quarantined")
        if self._quarantine_counter is not None:
            self._quarantine_counter.inc()

    def _count_swap(self, outcome: str) -> None:
        if self._swaps is not None:
            self._swaps.labels(outcome).inc()


class DirectoryWatcher:
    """Stat-based polling for new database drops in one directory.

    Tracks ``(mtime_ns, size)`` per ``*.json`` file (``.sha256``
    sidecars are not candidates) and reports paths that are new or
    changed since the previous poll, sorted by name for a
    deterministic swap order.  Stat-based — no inotify dependency —
    so it works anywhere the tests run.
    """

    def __init__(self, directory: str | Path,
                 pattern: str = "*.json") -> None:
        self.directory = Path(directory)
        self.pattern = pattern
        self._seen: dict[Path, tuple[int, int]] = {}

    def poll(self) -> list[Path]:
        """Paths new or changed since the last poll, sorted by name."""
        changed: list[Path] = []
        for path in sorted(self._candidates()):
            try:
                stat = path.stat()
            except OSError:
                continue  # vanished between glob and stat
            signature = (stat.st_mtime_ns, stat.st_size)
            if self._seen.get(path) != signature:
                self._seen[path] = signature
                changed.append(path)
        return changed

    def _candidates(self) -> Iterable[Path]:
        if not self.directory.is_dir():
            return ()
        return (path for path in self.directory.glob(self.pattern)
                if not path.name.endswith(".sha256"))
