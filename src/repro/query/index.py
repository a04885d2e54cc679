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
from ..pipeline.store import FailureDatabase, collector_paused
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
    #: The database snapshot itself (unfiltered query scopes answer
    #: from it).
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
    @collector_paused()
    def build(cls, db: FailureDatabase) -> "DatabaseIndex":
        """One pass over each record list; O(1) lookups ever after.

        The index carries ``db.fingerprint()`` (memoized on the
        database), the key the engine caches results under.  The build
        runs under :func:`~repro.pipeline.store.collector_paused`: its
        groupings are thousands of containers and no reference cycle.
        """
        by_manufacturer: dict[str, list] = {}
        by_month: dict[str, list] = {}
        by_tag: dict[FaultTag, list] = {}
        by_category: dict[FailureCategory, list] = {}
        by_id: dict[str, DisengagementRecord] = {}
        monthly_events: dict[str, dict[str, int]] = {}
        for record in db.disengagements:
            manufacturer, month, tag = (
                record.manufacturer, record.month, record.tag)
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
        for record in db.accidents:
            accidents_by_manufacturer.setdefault(
                record.manufacturer, []).append(record)
            accident_ids[accident_id(record)] = record

        mileage_by_manufacturer: dict[str, list] = {}
        miles_totals: dict[str, float] = {}
        monthly_miles: dict[str, dict[str, float]] = {}
        months: set[str] = set(by_month)
        for cell in db.mileage:
            manufacturer, month, miles = (
                cell.manufacturer, cell.month, cell.miles)
            mileage_by_manufacturer.setdefault(
                manufacturer, []).append(cell)
            miles_totals[manufacturer] = (
                miles_totals.get(manufacturer, 0.0) + miles)
            per_month = monthly_miles.setdefault(manufacturer, {})
            per_month[month] = per_month.get(month, 0.0) + miles
            months.add(month)

        # Every manufacturer keys at least one of the three groupings,
        # so their union is ``db.manufacturers()`` without another pass.
        manufacturers = tuple(sorted(
            by_manufacturer.keys() | accidents_by_manufacturer.keys()
            | mileage_by_manufacturer.keys()))
        return cls(
            fingerprint=db.fingerprint(),
            manufacturers=manufacturers,
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
                "manufacturers": len(manufacturers),
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
        """JSON-able description of the index (for ``/v1/stats``)."""
        return {
            "fingerprint": self.fingerprint,
            "manufacturers": len(self.manufacturers),
            "months": len(self.months),
            "tags": len(self._disengagements_by_tag),
            "categories": len(self._disengagements_by_category),
            **dict(self.counts),
        }
