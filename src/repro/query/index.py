"""Immutable, read-optimized indexes over a failure database.

A :class:`DatabaseIndex` is built **once** per database snapshot and
then only read: every lookup a ``/v1`` answer needs — records by
manufacturer, by month, by fault tag and by failure category, plus the
precomputed mileage totals — is a dict access (O(1)), never a scan
over the record lists.  It holds nothing that no answer reads, since
every served snapshot (each ``repro serve`` start, pre-fork worker
and hot swap) pays for building it.  The mappings are plain dicts
wrapped in :class:`types.MappingProxyType` and the record lists are
tuples, so concurrent readers can share one index without locks:
there is nothing to tear.

The index carries the :meth:`~repro.pipeline.store.
FailureDatabase.fingerprint` of the snapshot it was built from; the
engine uses it to detect content drift and the cache uses it as part
of every key.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import partial
from types import MappingProxyType
from typing import Mapping

from ..parsing.records import (
    AccidentRecord,
    DisengagementRecord,
    MonthlyMileage,
)
from ..pipeline.store import FailureDatabase, collector_paused
from ..taxonomy import TAG_CATEGORY, FailureCategory, FaultTag


def _frozen(groups: dict[object, list]) -> Mapping:
    """Read-only view of a grouping, each list made a tuple.

    The view is over a plain dict: a ``defaultdict`` would insert a
    key when a missing one is read with ``[]``.
    """
    return MappingProxyType({key: tuple(records)
                             for key, records in groups.items()})


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
    #: Manufacturer -> total autonomous miles (precomputed).
    _miles_by_manufacturer: Mapping[str, float] = field(repr=False)
    #: Manufacturer -> month -> miles (precomputed, months sorted).
    _monthly_miles: Mapping[str, Mapping[str, float]] = field(repr=False)
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
        by_manufacturer: dict[str, list] = defaultdict(list)
        by_month: dict[str, list] = defaultdict(list)
        by_tag: dict[FaultTag, list] = defaultdict(list)
        by_category: dict[FailureCategory, list] = defaultdict(list)
        for record in db.disengagements:
            by_manufacturer[record.manufacturer].append(record)
            by_month[record.month].append(record)
            tag = record.tag
            if tag is not None:
                by_tag[tag].append(record)
                by_category[TAG_CATEGORY[tag]].append(record)

        accidents_by_manufacturer: dict[str, list] = defaultdict(list)
        for record in db.accidents:
            accidents_by_manufacturer[record.manufacturer].append(record)

        # The totals add each manufacturer's (and month's) miles left
        # to right in file order, starting from 0.0.
        mileage_by_manufacturer: dict[str, list] = defaultdict(list)
        miles_totals: dict[str, float] = defaultdict(float)
        monthly_miles: dict[str, dict[str, float]] = defaultdict(
            partial(defaultdict, float))
        months: set[str] = set(by_month)
        for cell in db.mileage:
            manufacturer, month, miles = (
                cell.manufacturer, cell.month, cell.miles)
            mileage_by_manufacturer[manufacturer].append(cell)
            miles_totals[manufacturer] += miles
            monthly_miles[manufacturer][month] += miles
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
            _miles_by_manufacturer=MappingProxyType(dict(miles_totals)),
            _monthly_miles=MappingProxyType({
                name: MappingProxyType(dict(sorted(cells.items())))
                for name, cells in monthly_miles.items()}),
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

    def miles_for(self, manufacturer: str) -> float:
        """Total autonomous miles of one manufacturer."""
        return self._miles_by_manufacturer.get(manufacturer, 0.0)

    def monthly_miles(self, manufacturer: str) -> Mapping[str, float]:
        """Month -> miles of one manufacturer (months sorted)."""
        return self._monthly_miles.get(
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
