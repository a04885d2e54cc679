"""Generation-file coordination for the pre-fork server.

The master publishes "serve this database file as generation N" by
atomically replacing one small JSON file; every worker polls it and
hot-swaps through its own :class:`~repro.query.snapshot.SnapshotManager`.
The file is the *only* cross-process swap channel — no pipes, no
locks, no shared memory — so a worker that died and was respawned
catches up by simply reading the current file at boot.

Atomicity: :meth:`GenerationFile.publish` writes a temp file in the
same directory and ``os.replace``\\ s it over the target, so a reader
sees either the old pointer or the new one, never a torn write.  A
malformed file (only possible if something other than ``publish``
wrote it) reads as ``None`` and is ignored by the watcher — the
worker keeps serving its last-good snapshot, mirroring the
quarantine semantics of the snapshot manager itself.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable


@dataclass(frozen=True)
class Generation:
    """One published serving generation."""

    #: Monotonic counter (1 = the generation published at boot).
    generation: int
    #: Database file every worker should serve.
    path: str
    #: ``time.time()`` at publish.
    published_at: float

    def to_dict(self) -> dict[str, Any]:
        """The JSON body written to the generation file."""
        return {
            "generation": self.generation,
            "path": self.path,
            "published_at": self.published_at,
        }


class GenerationFile:
    """The atomically-replaced JSON pointer file."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    def read(self) -> Generation | None:
        """The current generation, or ``None`` (absent / malformed)."""
        try:
            data = json.loads(self.path.read_text(encoding="utf-8"))
            return Generation(
                generation=int(data["generation"]),
                path=str(data["path"]),
                published_at=float(data["published_at"]))
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def publish(self, db_path: str | Path) -> Generation:
        """Atomically point every watcher at ``db_path``.

        The generation counter continues from whatever the file holds
        (1 when absent), so publishes survive master restarts.
        """
        current = self.read()
        generation = Generation(
            generation=(current.generation + 1) if current else 1,
            path=str(db_path),
            published_at=time.time())
        tmp = self.path.with_name(self.path.name + ".tmp")
        tmp.write_text(json.dumps(generation.to_dict()),
                       encoding="utf-8")
        os.replace(tmp, self.path)
        return generation

    def wait(self, timeout: float = 5.0,
             interval_s: float = 0.02) -> Generation | None:
        """Block until the file reads cleanly (worker boot path)."""
        deadline = time.monotonic() + timeout
        while True:
            generation = self.read()
            if generation is not None:
                return generation
            if time.monotonic() >= deadline:
                return None
            time.sleep(interval_s)


class GenerationWatcher:
    """A polling thread that fires a callback on new generations.

    The callback receives the new :class:`Generation`; exceptions it
    raises are swallowed after being remembered in :attr:`last_error`
    (a failed swap must never kill the watcher — the next publish
    gets a fresh chance, exactly like the directory watcher's
    quarantine behavior).
    """

    def __init__(self, file: GenerationFile,
                 on_change: Callable[[Generation], None], *,
                 interval_s: float = 0.2,
                 start_generation: int = 0) -> None:
        self._file = file
        self._on_change = on_change
        self._interval_s = interval_s
        self._seen = start_generation
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.last_error: str | None = None

    def poll_once(self) -> bool:
        """One poll step; returns whether the callback fired."""
        generation = self._file.read()
        if generation is None or generation.generation <= self._seen:
            return False
        self._seen = generation.generation
        try:
            self._on_change(generation)
        except Exception as exc:
            self.last_error = repr(exc)
        return True

    def start(self) -> "GenerationWatcher":
        """Poll on a background thread until :meth:`stop`."""
        def loop() -> None:
            while not self._stop.is_set():
                self.poll_once()
                self._stop.wait(self._interval_s)

        self._thread = threading.Thread(
            target=loop, name="repro-generation-watch", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop and join the background polling thread."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
