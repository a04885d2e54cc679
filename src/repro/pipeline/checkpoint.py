"""Crash-safe persistence for the pipeline (durable checkpoints).

A long Stage II-IV run over thousands of heterogeneous DMV scans must
survive a hard process death (OOM kill, SIGKILL, power loss) without
losing completed work.  This module provides the durability layer:

* :func:`atomic_write_text` — the commit primitive used everywhere a
  file is published: write to a temporary file in the same directory,
  flush + ``fsync``, then :func:`os.replace` over the destination and
  ``fsync`` the directory.  A reader can never observe a torn file;
  a crash mid-write leaves the previous version intact.
* :class:`CheckpointStore` — a checkpoint directory holding per-unit
  *journals* (append-only JSONL, one self-checksummed line per
  completed unit of work) and stage-level *artifacts* (whole-stage
  outputs committed atomically), all bound to a ``manifest.json``
  that records the pipeline config fingerprint and library version.

Integrity rules:

* Every journal line and artifact carries a sha256 over its canonical
  JSON body.  A torn tail line (crash mid-append) or a corrupted entry
  fails its checksum, is dropped, counted in
  :class:`~repro.pipeline.resilience.CheckpointHealth`, and the unit
  is *recomputed* — corrupted state is never trusted.
* A manifest whose config fingerprint or library version does not
  match the resuming run marks the whole directory **stale**: it is
  discarded and rebuilt, so checkpoints from a different config/seed
  can never silently leak into a run.

Checkpoint directory layout::

    <dir>/
      manifest.json     # format version, library version, fingerprint
      documents.jsonl   # journal: per-document Stage II outcomes
      accidents.jsonl   # journal: per accident-document outcomes
      tags.jsonl        # journal: per-record Stage III tag results
      normalized.json   # artifact: normalized+filtered record set
      dictionary.json   # artifact: the built failure dictionary
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path
from typing import IO, Any

from .resilience import CheckpointHealth

try:  # optional accelerator; the stdlib encoder is the contract
    import orjson as _orjson
except ImportError:  # pragma: no cover - depends on environment
    _orjson = None

#: Bumped whenever the checkpoint layout changes incompatibly; a
#: mismatch marks the directory stale.
CHECKPOINT_FORMAT = 1

#: Names of the per-unit journals a store manages.
JOURNAL_NAMES = ("documents", "accidents", "tags")

#: Names of the stage-level artifacts a store manages.
ARTIFACT_NAMES = ("normalized", "dictionary")

#: Names of the binary (non-JSON) artifacts a store manages — today
#: just the columnar database snapshot a columnar-backend run leaves
#: behind at the end.
BLOB_ARTIFACT_NAMES = ("database",)

#: How many journal appends may ride in process/OS buffers before the
#: writer forces an ``fsync`` (stage boundaries always force one).
#: This bounds the recompute window after a hard crash — at most this
#: many completed units are lost and redone — while keeping the fsync
#: cost of a clean run negligible.
FSYNC_INTERVAL = 512


def sha256_text(text: str) -> str:
    """Hex sha256 of ``text`` (UTF-8)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical_json(obj: Any) -> str:
    """Deterministic JSON encoding used for checksums.

    Sorted keys, compact separators, raw (non-escaped) unicode.
    ``orjson`` (when present) is used because checkpoint
    serialization sits on the per-unit hot path and it is several
    times faster than the stdlib encoder.  The two encoders agree on
    every payload the pipeline journals; where they could ever differ
    (exotic float notation), a checkpoint written under one encoder
    and read under the other merely fails its checksum and is
    recomputed — integrity never depends on encoder parity.
    """
    if _orjson is not None:
        return _orjson.dumps(obj, option=_orjson.OPT_SORT_KEYS).decode()
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False)


def _fsync_directory(directory: Path) -> None:
    """Flush a directory entry update (rename durability) to disk."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic filesystems
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fsync on dirs unsupported
        pass
    finally:
        os.close(fd)


def atomic_write_text(path: str | Path, text: str | bytes, *,
                      durable: bool = True,
                      crash_hook: Any = None) -> None:
    """Atomically publish ``text`` (str or UTF-8 bytes) at ``path``.

    The temporary file lives in the destination directory (same
    filesystem, so :func:`os.replace` is atomic); a crash at any point
    leaves either the old content or the new content, never a torn
    mix.  ``durable=False`` skips the fsyncs (tests, benchmarks).

    ``crash_hook`` (crash-recovery testing only) is called after the
    temporary file is written but before it is published — the window
    a real mid-save crash would die in.  If it raises, the temporary
    file is left behind, exactly like real crash debris.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp.{os.getpid()}")
    if isinstance(text, str):
        text = text.encode("utf-8")
    with open(tmp, "wb") as handle:
        handle.write(text)
        handle.flush()
        if durable:
            os.fsync(handle.fileno())
    if crash_hook is not None:
        crash_hook()
    try:
        os.replace(tmp, path)
    except OSError:
        tmp.unlink(missing_ok=True)
        raise
    if durable:
        _fsync_directory(path.parent)


# ----------------------------------------------------------------------
# Journals: append-only, per-line checksummed JSONL.
# ----------------------------------------------------------------------

def _dumps_bytes(obj: Any) -> bytes:
    """:func:`canonical_json` as UTF-8 bytes (avoids a decode/encode
    round-trip on the journal hot path)."""
    if _orjson is not None:
        return _orjson.dumps(obj, option=_orjson.OPT_SORT_KEYS)
    return canonical_json(obj).encode("utf-8")


def _journal_line_bytes(unit_id: str, body: dict[str, Any]) -> bytes:
    # The body is serialized exactly once; embedding the canonical
    # bytes directly keeps the checksum consistent with what
    # ``read_journal`` recomputes after parsing.
    body_bytes = _dumps_bytes(body)
    digest = hashlib.sha256(body_bytes).hexdigest()
    return (b'{"body":' + body_bytes
            + b',"sha256":"' + digest.encode("ascii")
            + b'","unit":' + _dumps_bytes(unit_id) + b"}")


def journal_line(unit_id: str, body: dict[str, Any]) -> str:
    """Encode one journal entry as a self-checksummed line."""
    return _journal_line_bytes(unit_id, body).decode("utf-8")


def read_journal(path: str | Path) -> tuple[dict[str, dict[str, Any]], int]:
    """Read a journal, dropping torn or checksum-failed lines.

    Returns ``(entries, corrupt)``: a unit-id -> body mapping (a
    re-journaled unit's latest line wins) and the number of lines
    dropped for failing integrity.  A missing file is an empty
    journal.
    """
    path = Path(path)
    entries: dict[str, dict[str, Any]] = {}
    corrupt = 0
    if not path.exists():
        return entries, corrupt
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                unit = record["unit"]
                body = record["body"]
                ok = (isinstance(unit, str) and isinstance(body, dict)
                      and record["sha256"]
                      == hashlib.sha256(
                          _dumps_bytes(body)).hexdigest())
            except (json.JSONDecodeError, KeyError, TypeError):
                ok = False
            if not ok:
                corrupt += 1
                continue
            entries[unit] = body
    return entries, corrupt


class _JournalWriter:
    """Appends checksummed lines, fsyncing every few entries.

    Appends ride in the stream buffer between syncs; a hard crash can
    lose at most ``FSYNC_INTERVAL`` buffered lines (plus one torn tail
    line, which the reader's checksum drops), and every lost unit is
    simply recomputed on resume.
    """

    def __init__(self, path: Path, durable: bool) -> None:
        self.path = path
        self.durable = durable
        self._handle: IO[bytes] | None = None
        self._pending = 0

    def append(self, unit_id: str, body: dict[str, Any]) -> None:
        if self._handle is None:
            self._handle = open(self.path, "ab")
        self._handle.write(_journal_line_bytes(unit_id, body) + b"\n")
        self._pending += 1
        if self._pending >= FSYNC_INTERVAL:
            self.sync()

    def append_many(self,
                    entries: list[tuple[str, dict[str, Any]]]) -> None:
        """Append a chunk of entries with one buffered write.

        The on-disk bytes — per-line checksums included — are
        identical to repeated :meth:`append`, so torn-tail recovery
        is unchanged; batching only collapses the chunk into a single
        ``write`` call.
        """
        if not entries:
            return
        if self._handle is None:
            self._handle = open(self.path, "ab")
        self._handle.write(b"".join(
            _journal_line_bytes(unit_id, body) + b"\n"
            for unit_id, body in entries))
        self._pending += len(entries)
        if self._pending >= FSYNC_INTERVAL:
            self.sync()

    def sync(self) -> None:
        if self._handle is not None and self._pending:
            self._handle.flush()
            if self.durable:
                os.fsync(self._handle.fileno())
            self._pending = 0

    def close(self) -> None:
        if self._handle is not None:
            self.sync()
            self._handle.close()
            self._handle = None


# ----------------------------------------------------------------------
# The store.
# ----------------------------------------------------------------------

class CheckpointStore:
    """One checkpoint directory, bound to one pipeline configuration.

    ``open(resume=...)`` validates the manifest (creating or resetting
    the directory as needed); afterwards the runner reads restored
    journal entries / artifacts and appends newly completed units.
    All observations land in :attr:`health` for diagnostics.
    """

    MANIFEST = "manifest.json"

    def __init__(self, directory: str | Path, fingerprint: str, *,
                 durable: bool = True,
                 health: CheckpointHealth | None = None) -> None:
        self.directory = Path(directory)
        self.fingerprint = fingerprint
        self.durable = durable
        self.health = health if health is not None else CheckpointHealth()
        self.health.enabled = True
        self._writers: dict[str, _JournalWriter] = {}
        self._restored: dict[str, dict[str, dict[str, Any]]] = {}

    # -- lifecycle ------------------------------------------------------

    def open(self, resume: bool = False) -> None:
        """Prepare the directory: validate, reset, or adopt it."""
        self.directory.mkdir(parents=True, exist_ok=True)
        self.health.resumed = resume
        if not resume:
            self._reset()
            return
        reason = self._manifest_problem()
        if reason is not None:
            self.health.stale = True
            self.health.stale_reason = reason
            self._reset()
            return
        for name in JOURNAL_NAMES:
            entries, corrupt = read_journal(self._journal_path(name))
            self._restored[name] = entries
            if corrupt:
                self.health.corrupt_entries += corrupt
                self.health.notes.append(
                    f"journal {name!r}: {corrupt} corrupt "
                    "entr(y/ies) dropped and recomputed")

    def close(self) -> None:
        """Flush and close every journal writer."""
        for writer in self._writers.values():
            writer.close()
        self._writers.clear()

    def sync(self) -> None:
        """Force journal durability (called at stage boundaries)."""
        for writer in self._writers.values():
            writer.sync()

    def _reset(self) -> None:
        """Discard all checkpoint state and write a fresh manifest."""
        self._restored = {}
        for name in JOURNAL_NAMES:
            self._journal_path(name).unlink(missing_ok=True)
        for name in ARTIFACT_NAMES:
            self._artifact_path(name).unlink(missing_ok=True)
        for name in BLOB_ARTIFACT_NAMES:
            self._blob_path(name).unlink(missing_ok=True)
            self._blob_sidecar_path(name).unlink(missing_ok=True)
        for leftover in self.directory.glob(".*.tmp.*"):
            leftover.unlink(missing_ok=True)
        atomic_write_text(
            self.directory / self.MANIFEST,
            canonical_json({
                "format": CHECKPOINT_FORMAT,
                "version": _library_version(),
                "fingerprint": self.fingerprint,
            }),
            durable=self.durable)

    def _manifest_problem(self) -> str | None:
        """Why this directory cannot be resumed (None = resumable)."""
        path = self.directory / self.MANIFEST
        if not path.exists():
            return "missing manifest"
        try:
            manifest = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return "corrupt manifest"
        if not isinstance(manifest, dict):
            return "corrupt manifest"
        if manifest.get("format") != CHECKPOINT_FORMAT:
            return (f"checkpoint format {manifest.get('format')!r} != "
                    f"{CHECKPOINT_FORMAT}")
        if manifest.get("version") != _library_version():
            return (f"library version {manifest.get('version')!r} != "
                    f"{_library_version()!r}")
        if manifest.get("fingerprint") != self.fingerprint:
            return "config/seed fingerprint mismatch"
        return None

    # -- journals -------------------------------------------------------

    def _journal_path(self, name: str) -> Path:
        return self.directory / f"{name}.jsonl"

    def restored(self, name: str) -> dict[str, dict[str, Any]]:
        """Journal entries available for restore (empty if fresh)."""
        return self._restored.get(name, {})

    def append(self, name: str, unit_id: str,
               body: dict[str, Any]) -> None:
        """Journal one completed unit of work."""
        self._writer(name).append(unit_id, body)

    def append_many(self, name: str,
                    entries: list[tuple[str, dict[str, Any]]]) -> None:
        """Journal a chunk of completed units in one buffered append."""
        self._writer(name).append_many(entries)

    def _writer(self, name: str) -> _JournalWriter:
        writer = self._writers.get(name)
        if writer is None:
            writer = self._writers[name] = _JournalWriter(
                self._journal_path(name), self.durable)
        return writer

    # -- artifacts ------------------------------------------------------

    def _artifact_path(self, name: str) -> Path:
        return self.directory / f"{name}.json"

    def write_artifact(self, name: str, payload: Any) -> None:
        """Atomically commit one stage-level artifact."""
        # Like the journal: one serialization pass, checksum over the
        # embedded canonical bytes.
        payload_bytes = _dumps_bytes(payload)
        digest = hashlib.sha256(payload_bytes).hexdigest()
        atomic_write_text(
            self._artifact_path(name),
            b'{"payload":' + payload_bytes
            + b',"sha256":"' + digest.encode("ascii") + b'"}',
            durable=self.durable)

    def load_artifact(self, name: str) -> Any | None:
        """A restored artifact payload, or None (absent or corrupt)."""
        path = self._artifact_path(name)
        if not path.exists():
            return None
        try:
            wrapper = json.loads(path.read_text(encoding="utf-8"))
            payload = wrapper["payload"]
            ok = (wrapper["sha256"] == hashlib.sha256(
                _dumps_bytes(payload)).hexdigest())
        except (OSError, json.JSONDecodeError, KeyError, TypeError):
            ok = False
            payload = None
        if not ok:
            self.health.corrupt_entries += 1
            self.health.notes.append(
                f"artifact {name!r} failed its checksum; recomputed")
            return None
        return payload

    # -- binary artifacts ----------------------------------------------

    def _blob_path(self, name: str) -> Path:
        return self.directory / f"{name}.bin"

    def _blob_sidecar_path(self, name: str) -> Path:
        return self.directory / f"{name}.bin.sha256"

    def write_blob_artifact(self, name: str, payload: bytes) -> None:
        """Atomically commit one binary artifact + sha256 sidecar.

        Binary payloads (the columnar database snapshot) cannot embed
        their checksum the way the JSON artifacts do, so the digest
        lives in a ``sha256sum``-compatible sidecar instead.
        """
        atomic_write_text(self._blob_path(name), payload,
                          durable=self.durable)
        atomic_write_text(
            self._blob_sidecar_path(name),
            f"{hashlib.sha256(payload).hexdigest()}  {name}.bin\n",
            durable=self.durable)

    def load_blob_artifact(self, name: str) -> bytes | None:
        """A restored binary artifact, or None (absent or corrupt)."""
        path = self._blob_path(name)
        if not path.exists():
            return None
        try:
            payload = path.read_bytes()
            expected = self._blob_sidecar_path(name) \
                .read_text(encoding="utf-8").split()
            ok = bool(expected) and (
                hashlib.sha256(payload).hexdigest() == expected[0])
        except OSError:
            ok = False
            payload = None
        if not ok:
            self.health.corrupt_entries += 1
            self.health.notes.append(
                f"binary artifact {name!r} failed its checksum; "
                "recomputed")
            return None
        return payload

    def drop_blob_artifact(self, name: str) -> None:
        """Delete one binary artifact (stale after an ingest delta)."""
        self._blob_path(name).unlink(missing_ok=True)
        self._blob_sidecar_path(name).unlink(missing_ok=True)


def config_fingerprint(config: Any) -> str:
    """A stable digest of every config knob that shapes the output.

    Two runs share checkpoints only if their fingerprints match.
    Checkpointing knobs themselves, the kill-point
    (:class:`~repro.pipeline.chaos.CrashPoint`), and the
    ``workers``/``batch_size`` parallelism knobs, and
    the observability knobs (``trace_enabled``/``trace_dir``/
    ``metrics_enabled``) are deliberately excluded: a crash aborts a
    run but never changes any unit's output, a worker pool is an
    execution strategy with byte-identical output, and tracing/metrics
    only observe — so a resume may drop ``--crash-at``, switch worker
    counts, or toggle tracing and still adopt the pre-crash
    checkpoints.
    """
    chaos = None
    if config.chaos is not None:
        chaos = dataclasses.asdict(config.chaos)
    payload = {
        "seed": config.seed,
        "manufacturers": config.manufacturers,
        "scanner_profile": dataclasses.asdict(config.scanner_profile),
        "ocr_enabled": config.ocr_enabled,
        "correction_enabled": config.correction_enabled,
        "fallback_threshold": config.fallback_threshold,
        "dictionary_mode": config.dictionary_mode,
        "drop_planned": config.drop_planned,
        "attach_truth": config.attach_truth,
        "failure_policy": config.failure_policy,
        "max_error_rate": config.max_error_rate,
        "max_retries": config.max_retries,
        "chaos": chaos,
    }
    return sha256_text(canonical_json(payload))


def _library_version() -> str:
    # Imported lazily: repro/__init__ imports the pipeline package, so
    # a module-level import here would be circular.
    from .. import __version__

    return __version__
