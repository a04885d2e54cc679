"""Crash-safe persistence for the pipeline (durable checkpoints).

A long Stage II-IV run over thousands of heterogeneous DMV scans must
survive a hard process death (OOM kill, SIGKILL, power loss) without
losing completed work.  This module provides the durability layer:

* :func:`atomic_write_text` — the commit primitive used everywhere a
  file is published: write to a temporary file in the same directory,
  flush + ``fsync``, then :func:`os.replace` over the destination and
  ``fsync`` the directory.  A reader can never observe a torn file;
  a crash mid-write leaves the previous version intact.  Every publish
  and every journal sync is fsynced.
* :class:`CheckpointStore` — a checkpoint directory holding per-unit
  *journals* (append-only JSONL, one self-checksummed line per
  completed unit of work) and stage-level *artifacts* (whole-stage
  outputs committed atomically), all bound to a ``manifest.json``
  that records the pipeline config fingerprint and library version.

Integrity rules:

* Every journal line carries a sha256 over the bytes of its unit id
  and body, and every artifact one over its JSON payload.  A torn
  tail line (crash mid-append), bytes that are not UTF-8 JSON, or a
  checksum mismatch: the line or artifact is dropped, counted in
  :class:`~repro.pipeline.resilience.CheckpointHealth`, and the unit
  is *recomputed* — corrupted state is never trusted.  A resume that
  finds such lines in a journal, a torn tail included, rewrites it
  without them, so the next resume does not count them again.  Before
  a resumed run appends to a journal whose last line has no newline,
  that (intact) line is ended, so the new lines start on lines of
  their own.
* A manifest that is missing or unreadable, or whose config
  fingerprint or library version does not match the resuming run,
  marks the whole directory **stale**: it is discarded and rebuilt,
  so checkpoints from a different config/seed can never silently leak
  into a run.  The fingerprint hashes every config field except the
  checkpoint, crash and observability ones named in
  :data:`NOT_FINGERPRINTED`.

Resuming validates only the manifest.  Each stage loop then streams
its own journal (:meth:`CheckpointStore.restored`), one line at a
time, so no whole journal is ever held in memory, and each body is
parsed once.

Checkpoint directory layout::

    <dir>/
      manifest.json     # format version, library version, fingerprint
      documents.jsonl   # journal: per-document Stage II outcomes
      accidents.jsonl   # journal: per accident-document outcomes
      tags.jsonl        # journal: per-record Stage III tag results
      dictionary.json   # artifact: the built failure dictionary

Earlier releases also wrote a ``normalized.json`` artifact (the
normalized+filtered record set).  Recomputing it from the restored
Stage II records is cheaper than reading it, so nothing reads it any
more: a resume leaves it in place, and a reset deletes it.  Those
releases wrote checkpoint format 1, so resuming one of their
directories resets it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from collections.abc import Iterable, Iterator
from pathlib import Path
from typing import IO, Any

import orjson

from .resilience import CheckpointHealth

#: Bumped whenever the checkpoint layout changes incompatibly; a
#: mismatch marks the directory stale.  Format 2: a journal line's
#: sha256 covers its unit id as well as its body.
CHECKPOINT_FORMAT = 2

#: Names of the per-unit journals a store manages.
JOURNAL_NAMES = ("documents", "accidents", "tags")

#: Names of the stage-level artifacts a store manages.
ARTIFACT_NAMES = ("dictionary",)

#: Artifacts earlier releases wrote and nothing reads any more; a
#: reset deletes them with the rest of the old state.
RETIRED_ARTIFACTS = ("normalized",)

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
    """Deterministic JSON encoding used for checksums and fingerprints.

    Sorted keys, compact separators, raw (non-escaped) unicode, in
    orjson's float notation.  orjson is the only encoder: the stdlib
    one prints some floats differently (``2.5e-05`` for ``0.000025``,
    and again at 1e16 and above), which would give one database two
    fingerprints.
    """
    return canonical_bytes(obj).decode()


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


def atomic_write_text(path: str | Path,
                      text: str | bytes | Iterable[bytes], *,
                      crash_hook: Any = None) -> None:
    """Atomically publish ``text`` at ``path``.

    ``text`` is a str, UTF-8 bytes, or an iterable of byte chunks
    written in order as they are produced (so a large file is never
    held whole in memory).

    The temporary file lives in the destination directory (same
    filesystem, so :func:`os.replace` is atomic); a crash at any point
    leaves either the old content or the new content, never a torn
    mix.  The file is fsynced before the rename and the directory
    after it.

    ``crash_hook`` (crash-recovery testing only) is called after the
    temporary file is written but before it is published — the window
    a real mid-save crash would die in.  If it raises, the temporary
    file is left behind, exactly like real crash debris.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp.{os.getpid()}")
    if isinstance(text, str):
        text = text.encode("utf-8")
    chunks = (text,) if isinstance(text, bytes) else text
    with open(tmp, "wb") as handle:
        try:
            for chunk in chunks:
                handle.write(chunk)
        except BaseException:
            # The producer failed before the file was complete: there
            # is nothing to publish, so leave no partial file behind.
            handle.close()
            tmp.unlink(missing_ok=True)
            raise
        handle.flush()
        os.fsync(handle.fileno())
    if crash_hook is not None:
        crash_hook()
    try:
        os.replace(tmp, path)
    except OSError:
        tmp.unlink(missing_ok=True)
        raise
    _fsync_directory(path.parent)


# ----------------------------------------------------------------------
# Journals: append-only, per-line checksummed JSONL.
# ----------------------------------------------------------------------

def canonical_bytes(obj: Any) -> bytes:
    """:func:`canonical_json` as UTF-8 bytes (avoids a decode/encode
    round-trip on the journal and fingerprint hot paths)."""
    return orjson.dumps(obj, option=orjson.OPT_SORT_KEYS)


def journal_line(unit_id: str, body: dict[str, Any]) -> bytes:
    """Encode one journal entry as a self-checksummed line (without
    its newline): ``{"unit":...,"body":...,"sha256":"..."}``, the
    sha256 taken over every byte before ``,"sha256":"``."""
    # The body is serialized exactly once, and the checksum covers
    # the very bytes the line carries, so the reader checks an intact
    # line without re-encoding it.  The unit id leads, so ingest
    # surgery reads it without touching the body.
    head = (b'{"unit":' + canonical_bytes(unit_id)
            + b',"body":' + canonical_bytes(body))
    return (head + b',"sha256":"'
            + hashlib.sha256(head).hexdigest().encode("ascii") + b'"}')


def journal_lines(path: str | Path) -> Iterator[bytes]:
    """A journal's raw lines, each with its own terminator (none for a
    missing file).

    Lines end at ``\\n``, ``\\r`` or ``\\r\\n``, as a text-mode reader
    splits them; the writer only ever ends a line with ``\\n``, so a
    raw ``\\r`` comes from damage alone.
    """
    try:
        handle = open(path, "rb")
    except FileNotFoundError:
        return
    with handle:
        for chunk in handle:
            if b"\r" in chunk:
                yield from chunk.splitlines(keepends=True)
            else:
                yield chunk


def journal_entries(path: str | Path
                    ) -> Iterator[tuple[str, dict[str, Any]] | None]:
    """Stream a journal, one line at a time.

    Yields ``(unit, body)`` for every intact line, in file order (a
    re-journaled unit's later line supersedes its earlier one), and
    ``None`` for every line that fails integrity: a torn tail, bytes
    that are not UTF-8 JSON, a missing or mistyped field, or a
    checksum mismatch.  Blank lines (ASCII whitespace only) are
    skipped.  A missing file is an empty journal.

    Lines split as :func:`journal_lines` splits them.  The
    stdlib-``json`` reference reader
    (``tests/oracles.py::read_journal_reference``), which checks the
    sha256 against the canonical re-encode of the unit id and body in
    the writer's layout, differs in three cases.  A writer line
    reaches none of them; a damaged one reaches the first when the
    damage respells a value (a float's last digit flipped from
    ``...675e-279`` to ``...674e-279`` parses to the same float):

    * a line whose bytes differ from that canonical encoding (a body
      in another spelling, or another key order) is accepted here
      only when it starts ``{"unit":`` and its sha256 covers its own
      bytes before ``,"sha256":"``, since those are what the checksum
      vouches for; there, only when its sha256 covers the canonical
      encoding;
    * a line padded with whitespace JSON does not allow (form feed,
      vertical tab, U+00A0, ...) counts as corrupt here, where
      ``str.strip`` removes it;
    * a body holding ``NaN`` or ``Infinity`` counts as corrupt here
      (orjson rejects the tokens); there it passes when its checksum
      covers the canonical re-encode, which writes them as ``null``.
    """
    for line in journal_lines(path):
        if not line.isspace():
            yield _journal_entry(line)


def _journal_entry(line: bytes) -> tuple[str, dict[str, Any]] | None:
    """One journal line's ``(unit, body)``, or None if it fails
    integrity."""
    end = line.rfind(b',"sha256":"')
    if end == -1 or not line.startswith(b'{"unit":'):
        return None
    try:
        record = orjson.loads(line)
        unit, body, digest = record["unit"], record["body"], record["sha256"]
    except (ValueError, KeyError, TypeError):
        return None
    if (isinstance(unit, str) and isinstance(body, dict)
            and digest == hashlib.sha256(memoryview(line)[:end]).hexdigest()):
        return unit, body
    return None


def journal_line_unit(line: bytes) -> str | None:
    """The unit id one raw journal line names, or None if it names
    none.

    The id leads the line, so it is read without parsing the body.
    Integrity is not checked: that is the resume's job.
    """
    end = line.find(b',"body":', 8)
    if end == -1 or not line.startswith(b'{"unit":'):
        return None
    try:
        unit = orjson.loads(memoryview(line)[8:end])
    except ValueError:
        return None
    return unit if isinstance(unit, str) else None


class _JournalWriter:
    """Appends checksummed lines, fsyncing every few entries.

    Appends ride in the stream buffer between syncs; a hard crash can
    lose at most ``FSYNC_INTERVAL`` buffered lines (plus one torn tail
    line, which the reader's checksum drops), and every lost unit is
    simply recomputed on resume.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        self._handle: IO[bytes] | None = None
        self._pending = 0

    def _open(self) -> IO[bytes]:
        """Open the journal for appending, its last line ended first.

        A crash mid-append can leave a last line without its newline.
        Glued to it, the first appended line would fail its checksum
        at every later resume, so the line gets its newline.  A torn
        last line is already gone by then: the resume that read the
        journal rewrote it without its corrupt lines.
        """
        handle = open(self.path, "a+b")
        size = handle.seek(0, os.SEEK_END)
        if size:
            handle.seek(size - 1)
            if handle.read(1) not in (b"\n", b"\r"):
                handle.write(b"\n")
                handle.flush()
                os.fsync(handle.fileno())
        return handle

    def append(self, unit_id: str, body: dict[str, Any]) -> None:
        if self._handle is None:
            self._handle = self._open()
        self._handle.write(journal_line(unit_id, body) + b"\n")
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
            self._handle = self._open()
        self._handle.write(b"".join(
            journal_line(unit_id, body) + b"\n"
            for unit_id, body in entries))
        self._pending += len(entries)
        if self._pending >= FSYNC_INTERVAL:
            self.sync()

    def sync(self) -> None:
        if self._handle is not None and self._pending:
            self._handle.flush()
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
    the directory as needed); afterwards each stage loop streams its
    journal's restored entries, reads artifacts and appends newly
    completed units.  All observations land in :attr:`health` for
    diagnostics.
    """

    MANIFEST = "manifest.json"

    def __init__(self, directory: str | Path, fingerprint: str, *,
                 health: CheckpointHealth | None = None) -> None:
        self.directory = Path(directory)
        self.fingerprint = fingerprint
        self.health = health if health is not None else CheckpointHealth()
        self.health.enabled = True
        self._writers: dict[str, _JournalWriter] = {}

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
        for name in JOURNAL_NAMES:
            self._journal_path(name).unlink(missing_ok=True)
        for name in (*ARTIFACT_NAMES, *RETIRED_ARTIFACTS):
            self._artifact_path(name).unlink(missing_ok=True)
        for leftover in self.directory.glob(".*.tmp.*"):
            leftover.unlink(missing_ok=True)
        atomic_write_text(
            self.directory / self.MANIFEST,
            canonical_json({
                "format": CHECKPOINT_FORMAT,
                "version": _library_version(),
                "fingerprint": self.fingerprint,
            }))

    def _manifest_problem(self) -> str | None:
        """Why this directory cannot be resumed (None = resumable)."""
        path = self.directory / self.MANIFEST
        if not path.exists():
            return "missing manifest"
        try:
            manifest = orjson.loads(path.read_bytes())
        except (OSError, ValueError):
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

    def restored(self, name: str
                 ) -> Iterator[tuple[str, dict[str, Any]]]:
        """Stream the intact ``(unit, body)`` entries of journal
        ``name``, one line at a time and in file order (nothing after
        a fresh open, which deletes the journals).

        Once the journal is read to its end, the lines that failed
        integrity are counted and noted in :attr:`health`, and the
        journal is rewritten atomically from the original bytes of its
        intact lines, none of them parsed again.  The stage recomputes
        the dropped lines' units and journals them anew, so the next
        resume finds nothing to report.  The rewrite replaces the
        file, so a stage reads its journal before appending to it.
        """
        path = self._journal_path(name)
        corrupt = set()
        for number, entry in enumerate(journal_entries(path)):
            if entry is None:
                corrupt.add(number)
            else:
                yield entry
        if corrupt:
            self.health.corrupt_entries += len(corrupt)
            self.health.notes.append(
                f"journal {name!r}: {len(corrupt)} corrupt "
                "entr(y/ies) dropped and recomputed")
            kept = (line for line in journal_lines(path)
                    if not line.isspace())
            atomic_write_text(path, (
                line for number, line in enumerate(kept)
                if number not in corrupt))

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
                self._journal_path(name))
        return writer

    # -- artifacts ------------------------------------------------------

    def _artifact_path(self, name: str) -> Path:
        return self.directory / f"{name}.json"

    def write_artifact(self, name: str, payload: Any) -> None:
        """Atomically commit one stage-level artifact."""
        # Like the journal: one serialization pass, checksum over the
        # embedded canonical bytes.
        payload_bytes = canonical_bytes(payload)
        digest = hashlib.sha256(payload_bytes).hexdigest()
        atomic_write_text(
            self._artifact_path(name),
            b'{"payload":' + payload_bytes
            + b',"sha256":"' + digest.encode("ascii") + b'"}')

    def load_artifact(self, name: str) -> Any | None:
        """A restored artifact payload, or None (absent or corrupt)."""
        path = self._artifact_path(name)
        if not path.exists():
            return None
        try:
            wrapper = orjson.loads(path.read_bytes())
            payload = wrapper["payload"]
            ok = (wrapper["sha256"] == hashlib.sha256(
                canonical_bytes(payload)).hexdigest())
        except (OSError, ValueError, KeyError, TypeError):
            ok = False
            payload = None
        if not ok:
            self.health.corrupt_entries += 1
            self.health.notes.append(
                f"artifact {name!r} failed its checksum; recomputed")
            return None
        return payload


#: :class:`~repro.pipeline.config.PipelineConfig` fields that choose
#: where a run keeps its checkpoints or what it records, never what a
#: unit outputs: :func:`config_fingerprint` hashes every other field.
#: A crash aborts a run without changing any unit's output, and
#: tracing and metrics only observe — so a resume may drop
#: ``--crash-at`` or toggle tracing and metrics and still adopt the
#: pre-crash checkpoints.
NOT_FINGERPRINTED = frozenset({
    "checkpoint_dir", "resume", "crash", "trace_dir", "metrics_enabled",
})


def config_fingerprint(config: Any) -> str:
    """A stable digest of every config field that shapes the output.

    Two runs share checkpoints only if their fingerprints match.  The
    payload is every :class:`~repro.pipeline.config.PipelineConfig`
    field except :data:`NOT_FINGERPRINTED`, so a field added later is
    fingerprinted unless it is named there.
    """
    payload = {name: value
               for name, value in dataclasses.asdict(config).items()
               if name not in NOT_FINGERPRINTED}
    return sha256_text(canonical_json(payload))


def _library_version() -> str:
    # Imported lazily: repro/__init__ imports the pipeline package, so
    # a module-level import here would be circular.
    from .. import __version__

    return __version__
