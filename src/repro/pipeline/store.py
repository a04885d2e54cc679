"""The consolidated AV failure database (pipeline step 4).

Holds the tagged disengagement records, accident records, and monthly
mileage cells, with the grouping helpers every Stage IV analysis
needs, plus a JSON round-trip for persistence.

Persistence is crash-safe: :meth:`FailureDatabase.save` commits via
write-to-temp + fsync + ``os.replace`` (a crash mid-write can never
tear an existing database file) and publishes a sha256 sidecar that
:meth:`FailureDatabase.load` verifies whenever it is present; any
integrity failure raises :class:`~repro.errors.CorruptDatabaseError`
with the offending path and reason.  The file is the database's
canonical JSON, so the sidecar's digest is also its
:meth:`~FailureDatabase.fingerprint`.  Both directions work in
bounded pieces: the encoder writes :data:`ENCODE_CHUNK` records per
orjson call, and :meth:`FailureDatabase.from_json` parses a file in
that layout about :data:`DECODE_PIECE_BYTES` at a time, so neither
the payload dict nor the whole file's parse tree is ever built.
"""

from __future__ import annotations

import gc
import hashlib
from collections import defaultdict
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from orjson import JSONDecodeError, loads

from ..errors import CorruptDatabaseError
from ..parsing.records import (
    AccidentRecord,
    DisengagementRecord,
    MonthlyMileage,
)
from .checkpoint import atomic_write_text, canonical_bytes
from .resilience import Quarantine, QuarantineEntry

#: Records per orjson call when encoding a database: large enough that
#: call overhead vanishes, small enough that one chunk's transient list
#: of instance dicts and its bytes stay far below the whole file.
ENCODE_CHUNK = 1000

#: Bytes of a database file per orjson call when decoding it: each
#: section is cut at the first record boundary at or after this many
#: bytes, so the parse tree alive at any moment is one piece's, a small
#: fraction of the records it becomes.
DECODE_PIECE_BYTES = 64 * 1024

#: The bytes that open each section of a database file, in the order
#: the encoder writes them: accidents, disengagements, mileage, then
#: the quarantine, which is written only when it is non-empty.
_SECTION_OPENERS = (b'{"accidents":[', b'],"disengagements":[',
                    b'],"mileage":[', b'],"quarantine":[')


@contextmanager
def collector_paused() -> Iterator[None]:
    """Run a block with the cyclic garbage collector paused.

    For code that builds thousands of containers with no reference
    cycles (decoding a database, indexing it): the collections their
    allocation triggers would traverse them and free nothing.  On
    entry the collector is disabled if it was enabled.  On exit,
    whether the block returned or raised, every tracked object is
    moved to the oldest generation without being traversed
    (:func:`gc.freeze`, then :func:`gc.unfreeze`; the freeze also
    zeroes the young count, so no collection fires as the pause ends),
    and the collector is enabled again if it was on entry.  Nothing
    stays frozen, so cyclic garbage made anywhere else is reclaimed by
    the next full collection.  :func:`gc.unfreeze` would also release
    objects that an embedding program froze, so the move is skipped
    while anything is frozen; repro itself freezes nothing.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if not gc.get_freeze_count():
            gc.freeze()
            gc.unfreeze()
        if was_enabled:
            gc.enable()


def manufacturer_names(*collections) -> set[str]:
    """The set of manufacturer names across record collections.

    The one shared implementation behind every "which manufacturers
    are present?" question — each element of ``collections`` is any
    iterable of objects with a ``manufacturer`` attribute.
    """
    return {record.manufacturer
            for collection in collections
            for record in collection}


def group_by_manufacturer(records) -> dict[str, list]:
    """Group records (anything with ``.manufacturer``) by manufacturer."""
    grouped: dict[str, list] = defaultdict(list)
    for record in records:
        grouped[record.manufacturer].append(record)
    return dict(grouped)


@dataclass
class FailureDatabase:
    """Consolidated, analysis-ready failure data."""

    disengagements: list[DisengagementRecord] = field(default_factory=list)
    accidents: list[AccidentRecord] = field(default_factory=list)
    mileage: list[MonthlyMileage] = field(default_factory=list)
    #: Dead-letter store of units the pipeline failed on (empty on a
    #: clean run; carried in the JSON only when non-empty so clean
    #: databases stay byte-identical across library versions).
    quarantine: Quarantine = field(default_factory=Quarantine)
    #: Memoized ``(content token, fingerprint)`` pair — see
    #: :meth:`fingerprint` / :meth:`_content_token`.
    _fp_cache: tuple | None = field(
        default=None, init=False, repr=False, compare=False)

    # ------------------------------------------------------------------
    # Grouping helpers.
    # ------------------------------------------------------------------

    def manufacturers(self) -> list[str]:
        """Manufacturers present, sorted."""
        return sorted(manufacturer_names(
            self.disengagements, self.accidents, self.mileage))

    def disengagements_by_manufacturer(
            self) -> dict[str, list[DisengagementRecord]]:
        """Manufacturer -> its disengagement records."""
        return group_by_manufacturer(self.disengagements)

    def accidents_by_manufacturer(self) -> dict[str, list[AccidentRecord]]:
        """Manufacturer -> its accident records."""
        return group_by_manufacturer(self.accidents)

    def miles_by_manufacturer(self) -> dict[str, float]:
        """Manufacturer -> total autonomous miles."""
        totals: dict[str, float] = defaultdict(float)
        for cell in self.mileage:
            totals[cell.manufacturer] += cell.miles
        return dict(totals)

    def monthly_miles(self, manufacturer: str) -> dict[str, float]:
        """Month -> miles for one manufacturer."""
        totals: dict[str, float] = defaultdict(float)
        for cell in self.mileage:
            if cell.manufacturer == manufacturer:
                totals[cell.month] += cell.miles
        return dict(sorted(totals.items()))

    def monthly_disengagements(self, manufacturer: str) -> dict[str, int]:
        """Month -> disengagement count for one manufacturer."""
        counts: dict[str, int] = defaultdict(int)
        for record in self.disengagements:
            if record.manufacturer == manufacturer:
                counts[record.month] += 1
        return dict(sorted(counts.items()))

    def vehicle_miles(self, manufacturer: str) -> dict[str, float]:
        """Vehicle id -> miles for one manufacturer."""
        totals: dict[str, float] = defaultdict(float)
        for cell in self.mileage:
            if cell.manufacturer == manufacturer and cell.vehicle_id:
                totals[cell.vehicle_id] += cell.miles
        return dict(totals)

    def vehicle_disengagements(self, manufacturer: str) -> dict[str, int]:
        """Vehicle id -> disengagement count for one manufacturer."""
        counts: dict[str, int] = defaultdict(int)
        for record in self.disengagements:
            if record.manufacturer == manufacturer and record.vehicle_id:
                counts[record.vehicle_id] += 1
        return dict(counts)

    def reaction_times(self, manufacturer: str | None = None,
                       ) -> list[float]:
        """Reported reaction times (seconds), optionally filtered."""
        return [r.reaction_time_s for r in self.disengagements
                if r.reaction_time_s is not None
                and (manufacturer is None
                     or r.manufacturer == manufacturer)]

    @property
    def total_miles(self) -> float:
        """Total autonomous miles in the database."""
        # Imported here: repro.analysis imports this module.
        from ..analysis.stats import left_sum

        return left_sum(cell.miles for cell in self.mileage)

    # ------------------------------------------------------------------
    # Per-manufacturer scans.
    #
    # Narrow, data-shaped questions Stage IV asks per manufacturer
    # (``analysis.dpm``, ``analysis.categories``).  Row order is part
    # of the contract: downstream distributions depend on it.
    # ------------------------------------------------------------------

    def vehicle_attribution_counts(self, manufacturer: str,
                                   ) -> tuple[int, int]:
        """``(vehicle-attributed, total)`` disengagement counts."""
        attributed = 0
        total = 0
        for record in self.disengagements:
            if record.manufacturer == manufacturer:
                total += 1
                if record.vehicle_id:
                    attributed += 1
        return attributed, total

    def vehicle_year_miles(self, manufacturer: str,
                           ) -> dict[tuple[str, int], float]:
        """(vehicle id, year) -> miles for one manufacturer.

        Key order is first-occurrence order over the mileage cells —
        downstream per-year distributions depend on it.
        """
        totals: dict[tuple[str, int], float] = defaultdict(float)
        for cell in self.mileage:
            if cell.manufacturer == manufacturer and cell.vehicle_id:
                totals[(cell.vehicle_id, cell.year)] += cell.miles
        return dict(totals)

    def vehicle_year_disengagements(self, manufacturer: str,
                                    ) -> dict[tuple[str, int], int]:
        """(vehicle id, year) -> disengagement count."""
        counts: dict[tuple[str, int], int] = defaultdict(int)
        for record in self.disengagements:
            if record.manufacturer == manufacturer and record.vehicle_id:
                counts[(record.vehicle_id, record.year)] += 1
        return dict(counts)

    def tag_values(self, manufacturer: str) -> list:
        """Non-``None`` fault tags of one manufacturer, in row order."""
        return [r.tag for r in self.disengagements
                if r.manufacturer == manufacturer
                and r.tag is not None]

    def modality_values(self, manufacturer: str) -> list:
        """Non-``None`` modalities of one manufacturer, in row order."""
        return [r.modality for r in self.disengagements
                if r.manufacturer == manufacturer
                and r.modality is not None]

    # ------------------------------------------------------------------
    # Persistence.
    # ------------------------------------------------------------------

    def _canonical_chunks(self) -> Iterator[bytes]:
        """The database's canonical JSON, as a stream of byte chunks.

        The one encoder: :meth:`fingerprint` hashes this stream,
        :meth:`to_json` joins it and :meth:`save` writes it.  The text
        is :func:`~repro.pipeline.checkpoint.canonical_json` of the
        payload ``{"accidents": [...], "disengagements": [...],
        "mileage": [...]}`` (plus ``"quarantine"`` when non-empty),
        each record in its ``to_dict()`` form.  Records are encoded
        straight from their attributes, one orjson call per
        :data:`ENCODE_CHUNK` records: orjson writes enum values, ISO
        dates and tuples exactly as ``to_dict()`` spells them.
        """
        sections = [self.accidents, self.disengagements, self.mileage]
        if self.quarantine:
            sections.append(self.quarantine.entries)
        for opener, records in zip(_SECTION_OPENERS, sections):
            yield opener
            for start in range(0, len(records), ENCODE_CHUNK):
                if start:
                    yield b","
                chunk = records[start:start + ENCODE_CHUNK]
                yield canonical_bytes(
                    [vars(record) for record in chunk])[1:-1]
        yield b"]}"

    def to_json(self) -> str:
        """The database's canonical JSON text (what :meth:`save`
        writes)."""
        return b"".join(self._canonical_chunks()).decode()

    def _content_token(self) -> tuple:
        """Cheap mutation witness guarding the fingerprint memo.

        Record additions and removals (the mutations the pipeline,
        ingestion, and the serving layer actually perform) all change
        a collection length; in-place *field* edits on an existing
        record do not: after one, build a new :class:`FailureDatabase`
        (e.g. ``dataclasses.replace(db)``), which starts without a memo.
        """
        return (len(self.disengagements), len(self.accidents),
                len(self.mileage), len(self.quarantine))

    def fingerprint(self) -> str:
        """Stable content hash of the database.

        The hex sha256 of the canonical JSON encoding (sorted keys,
        compact separators — the same
        :func:`~repro.pipeline.checkpoint.canonical_json` the checkpoint
        sidecars use), so two databases with identical content always
        fingerprint identically.  The query layer keys its caches and
        indexes on this value.  The hash is fed from the chunked
        encoder :meth:`save` writes, so it equals the sha256 of a
        saved file (and its ``.sha256`` sidecar), and neither the
        payload nor its text is ever built whole.

        Memoized: snapshot swaps and cache lookups hit this on every
        request, so re-hashing the whole corpus each time is pure
        waste.  The memo is invalidated by any length-changing
        mutation (see :meth:`_content_token`).
        """
        token = self._content_token()
        cached = self._fp_cache
        if cached is not None and cached[0] == token:
            return cached[1]
        digest = hashlib.sha256()
        for chunk in self._canonical_chunks():
            digest.update(chunk)
        value = digest.hexdigest()
        self._fp_cache = (token, value)
        return value

    @classmethod
    @collector_paused()
    def from_json(cls, text: str | bytes, *,
                  source: str | Path | None = None) -> "FailureDatabase":
        """Decode a database from JSON text or bytes.

        Reads :meth:`to_json`'s canonical text and any other valid JSON
        layout of the same payload (files saved before the encoder was
        canonical included).  Bytes must be UTF-8.  Malformed,
        truncated, non-UTF-8 or structurally wrong input — and the
        non-JSON tokens ``NaN``/``Infinity`` — raise
        :class:`~repro.errors.CorruptDatabaseError` naming the source
        path (when given) and the offending section — never a raw
        ``KeyError``/``JSONDecodeError``.

        Text in :meth:`save`'s layout is decoded one piece of about
        :data:`DECODE_PIECE_BYTES` at a time (:func:`_decode_pieces`),
        so no call holds the whole file's parse tree.  Any other text,
        and any text a piece of which fails to parse or to decode, is
        parsed whole with one ``orjson.loads``; either way the input
        gives the same database or the same error.  The parse and the
        record construction run under :func:`collector_paused`.
        """
        sections = _decode_pieces(text)
        if sections is not None:
            accidents, disengagements, mileage, quarantine = sections
            return cls(disengagements=disengagements, accidents=accidents,
                       mileage=mileage,
                       quarantine=Quarantine(entries=quarantine))
        path = str(source) if source is not None else None
        try:
            data = loads(text)
        except JSONDecodeError as exc:
            raise CorruptDatabaseError(
                f"database JSON is malformed: {exc}",
                path=path, reason=f"invalid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise CorruptDatabaseError(
                "database JSON is not an object",
                path=path,
                reason=f"top level is {type(data).__name__}")
        return cls(
            disengagements=_decode_section(
                data, "disengagements", DisengagementRecord.from_dict,
                required=True, path=path),
            accidents=_decode_section(
                data, "accidents", AccidentRecord.from_dict,
                required=True, path=path),
            mileage=_decode_section(
                data, "mileage", MonthlyMileage.from_dict,
                required=True, path=path),
            quarantine=Quarantine(entries=_decode_section(
                data, "quarantine", QuarantineEntry.from_dict,
                required=False, path=path)),
        )

    def save(self, path: str | Path, *, crash: Any = None) -> None:
        """Write the database's canonical JSON to ``path`` — atomically.

        Guarantee: the JSON is streamed to a temporary file in the same
        directory, fsynced, and published with :func:`os.replace`, so
        a crash at any instant leaves either the previous database
        file or the complete new one on disk — never a torn mix.
        The bytes are hashed as they are written, and that digest is
        the :meth:`fingerprint`.  A ``<name>.sha256`` sidecar
        (``sha256sum``-compatible) is then published the same way;
        :meth:`load` verifies it before trusting the file.

        ``crash`` accepts a
        :class:`~repro.pipeline.chaos.CrashController` whose ``save``
        kill point fires mid-save (crash-recovery testing).
        """
        path = Path(path)
        token = self._content_token()
        digest = hashlib.sha256()

        def hashed_chunks() -> Iterator[bytes]:
            for chunk in self._canonical_chunks():
                digest.update(chunk)
                yield chunk

        atomic_write_text(
            path, hashed_chunks(),
            crash_hook=(None if crash is None
                        else lambda: crash.reached("save")))
        value = digest.hexdigest()
        self._fp_cache = (token, value)
        atomic_write_text(
            _sidecar_path(path), f"{value}  {path.name}\n")

    @classmethod
    def load(cls, path: str | Path) -> "FailureDatabase":
        """Read a database previously written with :meth:`save`.

        The file's bytes are read once.  When a ``.sha256`` sidecar
        exists, they are verified against it first; a mismatch raises
        :class:`~repro.errors.CorruptDatabaseError` instead of
        returning silently wrong data.  Then :meth:`from_json` decodes
        the same bytes, one bounded piece at a time when they are in
        :meth:`save`'s layout.  Errors reading the file, such as a
        missing path or a directory, propagate as the ``OSError`` they
        are.
        """
        path = Path(path)
        data = path.read_bytes()
        verify_sidecar(path, data)
        return cls.from_json(data, source=path)


def verify_sidecar(path: Path, data: bytes) -> None:
    """Check ``data`` against the ``.sha256`` sidecar beside ``path``.

    No sidecar means nothing to check.  A sidecar that does not match
    (garbled bytes included) raises
    :class:`~repro.errors.CorruptDatabaseError`.
    """
    sidecar = _sidecar_path(path)
    if not sidecar.exists():
        return
    expected = sidecar.read_text(encoding="utf-8", errors="replace").split()
    if not expected or hashlib.sha256(data).hexdigest() != expected[0]:
        raise CorruptDatabaseError(
            f"database file {path} does not match its .sha256 sidecar",
            path=str(path), reason="checksum mismatch")


def _sidecar_path(path: Path) -> Path:
    """Where :meth:`FailureDatabase.save` puts the checksum sidecar."""
    return path.with_name(path.name + ".sha256")


#: Record decoders of the sections, in :data:`_SECTION_OPENERS` order.
_SECTION_DECODERS = (AccidentRecord.from_dict, DisengagementRecord.from_dict,
                     MonthlyMileage.from_dict, QuarantineEntry.from_dict)


def _decode_pieces(text: str | bytes) -> list[list] | None:
    """Decode text in :meth:`FailureDatabase.save`'s layout piecewise.

    The text must be the openers of the accidents, disengagements and
    mileage sections (and optionally the quarantine's), in that order,
    each followed by its records, and then ``]}``.  The sections are
    found without walking the records: the disengagements opener is
    the first after the accidents opener, the mileage opener the last
    one in the text (:meth:`bytes.rfind` crosses only the mileage and
    quarantine sections, not the disengagements, which are most of the
    file), and the quarantine opener the first after that.  Each
    section is cut after the ``}`` of the first ``},{"`` at or after
    every :data:`DECODE_PIECE_BYTES` bytes, the comma between the two
    is dropped, and each piece is parsed as ``[`` + piece + ``]`` and
    turned into records at once.  Returns the four record lists in
    file order (the quarantine's empty when the section is absent), or
    ``None`` when the layout differs, ``str`` input does not encode
    (a lone surrogate), or any piece fails to parse or to decode.

    Why the openers found are the sections': an opener's quotes cannot
    stand unescaped inside a JSON string, so its bytes inside a record
    would have to be structure, a list-valued key followed by a
    ``"mileage"`` (or ``"disengagements"``, ``"quarantine"``) key, and
    no record's encoding has such a key.  Should a file hold one
    anyway and a boundary be found there, the section before it ends
    inside that record's braces, so its last piece does not parse and
    the whole text is decoded instead.

    Why a cut is safe: a ``"`` inside a JSON string is always escaped,
    so a ``},{"`` whose ``},{`` lies inside a string can only end at
    that string's closing quote; the left piece then ends inside an
    open string and does not parse.  A cut between sibling objects
    nested inside a record leaves the left piece unbalanced, which
    does not parse either.  So the decode succeeds only when every cut
    falls between two records of a section.  When it does, every piece
    is non-empty and valid, so joining a section's pieces with the
    dropped commas gives a valid array of the same items, and the text
    is a valid JSON object with exactly the openers' keys, each once;
    JSON parses one way only, so the whole-text decode sees the same
    items and builds equal records.  Cuts and openers fall on ASCII
    bytes, so no cut splits a UTF-8 character.
    """
    if isinstance(text, str):
        try:
            text = text.encode()
        except UnicodeEncodeError:
            return None
    if not (text.startswith(_SECTION_OPENERS[0]) and text.endswith(b"]}")):
        return None
    stop = len(text) - 2
    bounds = []
    start = len(_SECTION_OPENERS[0])
    for opener, search in zip(_SECTION_OPENERS[1:],
                              (text.find, text.rfind, text.find)):
        at = search(opener, start, stop)
        if at < 0:
            break
        bounds.append((start, at))
        start = at + len(opener)
    bounds.append((start, stop))
    if len(bounds) < 3:
        return None
    view = memoryview(text)
    sections: list[list] = []
    try:
        for (start, end), from_dict in zip(bounds, _SECTION_DECODERS):
            records: list = []
            while True:
                cut = text.find(b'},{"', start + DECODE_PIECE_BYTES - 1, end)
                piece_end = end if cut < 0 else cut + 1
                records += map(from_dict, loads(
                    b"".join((b"[", view[start:piece_end], b"]"))))
                if cut < 0:
                    break
                start = cut + 2
            sections.append(records)
    except Exception:
        # Whatever a piece raised, the whole-text decode raises again
        # as the typed error (or decodes text a cut split wrongly).
        return None
    if len(sections) == 3:
        sections.append([])
    return sections


def _decode_section(data: dict, key: str, from_dict, *,
                    required: bool, path: str | None) -> list:
    """Decode one record list, translating failures to typed errors."""
    if key not in data:
        if not required:
            return []
        raise CorruptDatabaseError(
            f"database JSON is missing required section {key!r}",
            path=path, reason=f"missing key {key!r}")
    section = data[key]
    if not isinstance(section, list):
        raise CorruptDatabaseError(
            f"database section {key!r} is not a list",
            path=path,
            reason=f"{key!r} is {type(section).__name__}")
    records = []
    for index, entry in enumerate(section):
        try:
            records.append(from_dict(entry))
        except Exception as exc:
            raise CorruptDatabaseError(
                f"database section {key!r} entry {index} could not "
                f"be decoded: {type(exc).__name__}: {exc}",
                path=path,
                reason=f"bad {key!r} entry {index}: {exc}") from exc
    return records
