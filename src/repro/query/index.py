"""Immutable, read-optimized indexes over a failure database.

A :class:`DatabaseIndex` is built **once** per database snapshot and
then only read: every lookup the serving layer needs — records by
manufacturer, by month, by fault tag, by failure category, by record
id, plus the precomputed mileage aggregates — is a dict access
(O(1)), never a scan over the record lists.  The mappings are wrapped
in :class:`types.MappingProxyType` and the record lists in tuples, so
concurrent readers can share one index without locks: there is nothing
to tear.

The index carries the :meth:`~repro.pipeline.store.
FailureDatabase.fingerprint` of the snapshot it was built from; the
engine uses it to detect content drift and the cache uses it as part
of every key.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from ..parsing.records import (
    AccidentRecord,
    DisengagementRecord,
    MonthlyMileage,
)
from ..pipeline.runner import record_id
from ..pipeline.store import FailureDatabase
from ..taxonomy import FailureCategory, FaultTag, category_of


def disengagement_id(record: DisengagementRecord) -> str:
    """Stable id for a disengagement record (provenance-derived when
    the record has one, content-derived otherwise) — the same id the
    checkpoint journals use, so a served record can be traced back to
    its journal entry."""
    return record_id(record)


def accident_id(record: AccidentRecord) -> str:
    """Stable content-derived id for an accident record.

    Accident reports carry no line-level provenance (one OL-316 form
    per document), so the id is always content-derived.
    """
    digest = hashlib.sha256("|".join((
        record.manufacturer, record.month or "",
        record.description,
    )).encode("utf-8")).hexdigest()[:16]
    return f"accident:{digest}"


def _frozen(mapping: dict) -> Mapping:
    """Read-only view with tuple values where values are lists."""
    return MappingProxyType({
        key: (tuple(value) if isinstance(value, list) else value)
        for key, value in mapping.items()})


@dataclass(frozen=True)
class DatabaseIndex:
    """Read-only lookup structures for one database snapshot."""

    #: Content hash of the snapshot this index was built from.
    fingerprint: str
    manufacturers: tuple[str, ...]
    months: tuple[str, ...]
    #: The database snapshot itself.  Kept on the index so a request
    #: that captured one index reference sees *matching* raw record
    #: lists (unfiltered query scopes) — it can never blend an old
    #: index with a newer database, whatever refresh/swap does
    #: concurrently.
    database: FailureDatabase = field(repr=False)

    _disengagements_by_manufacturer: Mapping[
        str, tuple[DisengagementRecord, ...]] = field(repr=False)
    _accidents_by_manufacturer: Mapping[
        str, tuple[AccidentRecord, ...]] = field(repr=False)
    _mileage_by_manufacturer: Mapping[
        str, tuple[MonthlyMileage, ...]] = field(repr=False)
    _disengagements_by_month: Mapping[
        str, tuple[DisengagementRecord, ...]] = field(repr=False)
    _disengagements_by_tag: Mapping[
        FaultTag, tuple[DisengagementRecord, ...]] = field(repr=False)
    _disengagements_by_category: Mapping[
        FailureCategory, tuple[DisengagementRecord, ...]] = field(
        repr=False)
    _disengagement_by_id: Mapping[str, DisengagementRecord] = field(
        repr=False)
    _accident_by_id: Mapping[str, AccidentRecord] = field(repr=False)
    #: Manufacturer -> total autonomous miles (precomputed).
    _miles_by_manufacturer: Mapping[str, float] = field(repr=False)
    #: Manufacturer -> month -> miles (precomputed, months sorted).
    _monthly_miles: Mapping[str, Mapping[str, float]] = field(repr=False)
    #: Manufacturer -> month -> disengagement count.
    _monthly_disengagements: Mapping[str, Mapping[str, int]] = field(
        repr=False)
    counts: Mapping[str, int] = field(repr=False)

    # ------------------------------------------------------------------
    # Construction.
    # ------------------------------------------------------------------

    @classmethod
    def build(cls, db: FailureDatabase,
              fingerprint: str | None = None) -> "DatabaseIndex":
        """One pass over each record list; O(1) lookups ever after.

        ``fingerprint`` lets a caller that already hashed the database
        (the engine does, for cache keying) avoid hashing it twice.
        """
        # The grouping keys come from the database's index-row streams
        # rather than per-record attribute access: the columnar
        # backend serves (manufacturer, month, tag) straight from its
        # packed arrays, the dict backend reads the attributes — one
        # build implementation, byte-identical groupings either way.
        by_manufacturer: dict[str, list] = {}
        by_month: dict[str, list] = {}
        by_tag: dict[FaultTag, list] = {}
        by_category: dict[FailureCategory, list] = {}
        by_id: dict[str, DisengagementRecord] = {}
        monthly_events: dict[str, dict[str, int]] = {}
        for record, manufacturer, month, tag \
                in db.disengagement_index_rows():
            by_manufacturer.setdefault(manufacturer,
                                       []).append(record)
            by_month.setdefault(month, []).append(record)
            if tag is not None:
                by_tag.setdefault(tag, []).append(record)
                by_category.setdefault(category_of(tag),
                                       []).append(record)
            by_id[disengagement_id(record)] = record
            per_month = monthly_events.setdefault(manufacturer, {})
            per_month[month] = per_month.get(month, 0) + 1

        accidents_by_manufacturer: dict[str, list] = {}
        accident_ids: dict[str, AccidentRecord] = {}
        for record, manufacturer in db.accident_index_rows():
            accidents_by_manufacturer.setdefault(
                manufacturer, []).append(record)
            accident_ids[accident_id(record)] = record

        mileage_by_manufacturer: dict[str, list] = {}
        miles_totals: dict[str, float] = {}
        monthly_miles: dict[str, dict[str, float]] = {}
        months: set[str] = set(by_month)
        for cell, manufacturer, month, miles \
                in db.mileage_index_rows():
            mileage_by_manufacturer.setdefault(
                manufacturer, []).append(cell)
            miles_totals[manufacturer] = (
                miles_totals.get(manufacturer, 0.0) + miles)
            per_month = monthly_miles.setdefault(manufacturer, {})
            per_month[month] = per_month.get(month, 0.0) + miles
            months.add(month)

        return cls(
            fingerprint=(fingerprint if fingerprint is not None
                         else db.fingerprint()),
            manufacturers=tuple(db.manufacturers()),
            months=tuple(sorted(months)),
            database=db,
            _disengagements_by_manufacturer=_frozen(by_manufacturer),
            _accidents_by_manufacturer=_frozen(
                accidents_by_manufacturer),
            _mileage_by_manufacturer=_frozen(mileage_by_manufacturer),
            _disengagements_by_month=_frozen(by_month),
            _disengagements_by_tag=_frozen(by_tag),
            _disengagements_by_category=_frozen(by_category),
            _disengagement_by_id=MappingProxyType(by_id),
            _accident_by_id=MappingProxyType(accident_ids),
            _miles_by_manufacturer=MappingProxyType(miles_totals),
            _monthly_miles=MappingProxyType({
                name: MappingProxyType(dict(sorted(cells.items())))
                for name, cells in monthly_miles.items()}),
            _monthly_disengagements=MappingProxyType({
                name: MappingProxyType(dict(sorted(cells.items())))
                for name, cells in monthly_events.items()}),
            counts=MappingProxyType({
                "disengagements": len(db.disengagements),
                "accidents": len(db.accidents),
                "mileage_cells": len(db.mileage),
                "manufacturers": len(db.manufacturers()),
            }),
        )

    # ------------------------------------------------------------------
    # Lookups (all O(1)).
    # ------------------------------------------------------------------

    def disengagements_for(self, manufacturer: str,
                           ) -> tuple[DisengagementRecord, ...]:
        """Disengagement records of one manufacturer."""
        return self._disengagements_by_manufacturer.get(
            manufacturer, ())

    def accidents_for(self, manufacturer: str,
                      ) -> tuple[AccidentRecord, ...]:
        """Accident records of one manufacturer."""
        return self._accidents_by_manufacturer.get(manufacturer, ())

    def mileage_for(self, manufacturer: str,
                    ) -> tuple[MonthlyMileage, ...]:
        """Mileage cells of one manufacturer."""
        return self._mileage_by_manufacturer.get(manufacturer, ())

    def disengagements_in_month(self, month: str,
                                ) -> tuple[DisengagementRecord, ...]:
        """Disengagement records of one ``YYYY-MM`` month."""
        return self._disengagements_by_month.get(month, ())

    def disengagements_with_tag(self, tag: FaultTag,
                                ) -> tuple[DisengagementRecord, ...]:
        """Disengagement records carrying one NLP fault tag."""
        return self._disengagements_by_tag.get(tag, ())

    def disengagements_in_category(
            self, category: FailureCategory,
            ) -> tuple[DisengagementRecord, ...]:
        """Disengagement records in one root failure category."""
        return self._disengagements_by_category.get(category, ())

    def disengagement(self, unit_id: str) -> DisengagementRecord | None:
        """One disengagement record by its stable id."""
        return self._disengagement_by_id.get(unit_id)

    def accident(self, unit_id: str) -> AccidentRecord | None:
        """One accident record by its stable id."""
        return self._accident_by_id.get(unit_id)

    def miles_for(self, manufacturer: str) -> float:
        """Total autonomous miles of one manufacturer."""
        return self._miles_by_manufacturer.get(manufacturer, 0.0)

    def monthly_miles(self, manufacturer: str) -> Mapping[str, float]:
        """Month -> miles of one manufacturer (months sorted)."""
        return self._monthly_miles.get(
            manufacturer, MappingProxyType({}))

    def monthly_disengagements(self, manufacturer: str,
                               ) -> Mapping[str, int]:
        """Month -> disengagement count of one manufacturer."""
        return self._monthly_disengagements.get(
            manufacturer, MappingProxyType({}))

    @property
    def tags(self) -> tuple[FaultTag, ...]:
        """Fault tags present, in ontology order."""
        return tuple(tag for tag in FaultTag
                     if tag in self._disengagements_by_tag)

    @property
    def categories(self) -> tuple[FailureCategory, ...]:
        """Failure categories present, in ontology order."""
        return tuple(cat for cat in FailureCategory
                     if cat in self._disengagements_by_category)

    def summary(self) -> dict:
        """JSON-able description of the index (for ``/stats``)."""
        return {
            "fingerprint": self.fingerprint,
            "manufacturers": len(self.manufacturers),
            "months": len(self.months),
            "tags": len(self._disengagements_by_tag),
            "categories": len(self._disengagements_by_category),
            **dict(self.counts),
        }
