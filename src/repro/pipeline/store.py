"""The consolidated AV failure database (pipeline step 4).

Holds the tagged disengagement records, accident records, and monthly
mileage cells, with the grouping helpers every Stage IV analysis
needs, plus a JSON round-trip for persistence.

Persistence is crash-safe: :meth:`FailureDatabase.save` commits via
write-to-temp + fsync + ``os.replace`` (a crash mid-write can never
tear an existing database file) and publishes a sha256 sidecar that
:meth:`FailureDatabase.load` verifies; any integrity failure raises
:class:`~repro.errors.CorruptDatabaseError` with the offending path
and reason.
"""

from __future__ import annotations

import hashlib
import json
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..errors import CorruptDatabaseError
from ..parsing.records import (
    AccidentRecord,
    DisengagementRecord,
    MonthlyMileage,
)
from .checkpoint import atomic_write_text, canonical_bytes, sha256_text
from .resilience import Quarantine, QuarantineEntry


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
    #: :meth:`fingerprint` / :meth:`touch`.
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
        return sum(cell.miles for cell in self.mileage)

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

    def tag_values(self, manufacturer: str,
                   use_truth: bool = False) -> list:
        """Non-``None`` fault tags of one manufacturer, in row order."""
        if use_truth:
            return [r.truth_tag for r in self.disengagements
                    if r.manufacturer == manufacturer
                    and r.truth_tag is not None]
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

    def _payload(self) -> dict[str, Any]:
        """JSON-serializable dictionary form (what :meth:`to_json`
        writes and :meth:`fingerprint` hashes)."""
        payload = {
            "disengagements": [r.to_dict() for r in self.disengagements],
            "accidents": [r.to_dict() for r in self.accidents],
            "mileage": [m.to_dict() for m in self.mileage],
        }
        if self.quarantine:
            payload["quarantine"] = [e.to_dict()
                                     for e in self.quarantine]
        return payload

    def to_json(self) -> str:
        """Serialize the database to a JSON string."""
        return json.dumps(self._payload())

    def _content_token(self) -> tuple:
        """Cheap mutation witness guarding the fingerprint memo.

        Record additions and removals (the mutations the pipeline,
        ingestion, and the serving layer actually perform) all change
        a collection length; in-place *field* edits on an existing
        record do not, and callers doing that must :meth:`touch`.
        """
        return (len(self.disengagements), len(self.accidents),
                len(self.mileage), len(self.quarantine))

    def touch(self) -> None:
        """Invalidate the fingerprint memo after in-place mutation.

        Only needed when editing fields of existing records —
        length-changing mutations are detected automatically.
        """
        self._fp_cache = None

    def fingerprint(self) -> str:
        """Stable content hash of the database.

        The hex sha256 of the canonical JSON encoding of
        :meth:`_payload` (sorted keys, compact separators — the same
        :func:`~repro.pipeline.checkpoint.canonical_json` the checkpoint
        sidecars use), so two databases with identical content always
        fingerprint identically regardless of in-memory construction
        order of equal JSON texts.  The query layer keys its caches and
        indexes on this value.  The encoding is streamed into the hash
        one record at a time, so neither the payload nor its text is
        ever built whole.

        Memoized: snapshot swaps and cache lookups hit this on every
        request, so re-hashing the whole corpus each time is pure
        waste.  The memo is invalidated by any length-changing
        mutation (see :meth:`_content_token`) or an explicit
        :meth:`touch`.
        """
        token = self._content_token()
        cached = self._fp_cache
        if cached is not None and cached[0] == token:
            return cached[1]
        sections = [(b'{"accidents":[', self.accidents),
                    (b'],"disengagements":[', self.disengagements),
                    (b'],"mileage":[', self.mileage)]
        if self.quarantine:
            sections.append((b'],"quarantine":[', self.quarantine))
        digest = hashlib.sha256()
        for opener, records in sections:
            digest.update(opener)
            separator = b""
            for record in records:
                digest.update(separator)
                digest.update(canonical_bytes(record.to_dict()))
                separator = b","
        digest.update(b"]}")
        value = digest.hexdigest()
        self._fp_cache = (token, value)
        return value

    @classmethod
    def from_json(cls, text: str, *,
                  source: str | Path | None = None) -> "FailureDatabase":
        """Inverse of :meth:`to_json`.

        Malformed, truncated, or structurally wrong JSON raises
        :class:`~repro.errors.CorruptDatabaseError` naming the source
        path (when given) and the offending section — never a raw
        ``KeyError``/``json.JSONDecodeError``.
        """
        path = str(source) if source is not None else None
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
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

    def save(self, path: str | Path, *, durable: bool = True,
             checksum: bool = True, crash: Any = None) -> None:
        """Write the database to ``path`` as JSON — atomically.

        Guarantee: the JSON is written to a temporary file in the same
        directory, fsynced, and published with :func:`os.replace`, so
        a crash at any instant leaves either the previous database
        file or the complete new one on disk — never a torn mix.
        ``checksum=True`` additionally publishes a
        ``<name>.sha256`` sidecar (``sha256sum``-compatible) that
        :meth:`load` verifies before trusting the file.

        ``crash`` accepts a
        :class:`~repro.pipeline.chaos.CrashController` whose ``save``
        kill point fires mid-save (crash-recovery testing).
        """
        path = Path(path)
        text = self.to_json()
        atomic_write_text(
            path, text, durable=durable,
            crash_hook=(None if crash is None
                        else lambda: crash.reached("save")))
        if checksum:
            atomic_write_text(
                _sidecar_path(path),
                f"{sha256_text(text)}  {path.name}\n",
                durable=durable)

    @classmethod
    def load(cls, path: str | Path, *,
             verify_checksum: bool = True) -> "FailureDatabase":
        """Read a database previously written with :meth:`save`.

        When a ``.sha256`` sidecar exists (and ``verify_checksum`` is
        on), the file content is verified against it first; a mismatch
        raises :class:`~repro.errors.CorruptDatabaseError` instead of
        returning silently wrong data.
        """
        path = Path(path)
        text = read_database_text(path)
        if verify_checksum:
            verify_sidecar(path, text)
        return cls.from_json(text, source=path)


def read_database_text(path: Path) -> str:
    """The text of a database file, decoded as UTF-8.

    Every database reader decodes through here, so bytes that are not
    UTF-8 (a binary file, a garbled drop) raise
    :class:`~repro.errors.CorruptDatabaseError` like any other damaged
    database.  A missing or unreadable file still raises ``OSError``.
    """
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CorruptDatabaseError(
            f"database file {path} is not UTF-8 text: {exc}",
            path=str(path), reason=f"not UTF-8: {exc.reason}") from exc


def verify_sidecar(path: Path, text: str) -> None:
    """Check ``text`` against the ``.sha256`` sidecar beside ``path``.

    No sidecar means nothing to check.  A sidecar that does not match
    (garbled bytes included) raises
    :class:`~repro.errors.CorruptDatabaseError`.
    """
    sidecar = _sidecar_path(path)
    if not sidecar.exists():
        return
    expected = sidecar.read_text(encoding="utf-8", errors="replace").split()
    if not expected or sha256_text(text) != expected[0]:
        raise CorruptDatabaseError(
            f"database file {path} does not match its .sha256 sidecar",
            path=str(path), reason="checksum mismatch")


def _sidecar_path(path: Path) -> Path:
    """Where :meth:`FailureDatabase.save` puts the checksum sidecar."""
    return path.with_name(path.name + ".sha256")


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
