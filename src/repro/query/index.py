"""Immutable, read-optimized indexes over a failure database.

A :class:`DatabaseIndex` is built **once** per database snapshot and
then only read: every lookup :meth:`~repro.query.engine.QueryEngine.
scope` needs to assemble a slice — records by manufacturer, and
disengagements by fault tag and by failure category — is a dict access
(O(1)), never a scan over the record lists.  It holds nothing that no
answer reads, since every served snapshot (each ``repro serve`` start,
pre-fork worker and hot swap) pays for building it.  The mappings are
plain dicts wrapped in :class:`types.MappingProxyType` and the record
lists are tuples, so concurrent readers can share one index without
locks: there is nothing to tear.

The index carries the :meth:`~repro.pipeline.store.
FailureDatabase.fingerprint` of the snapshot it was built from; the
engine uses it to detect content drift and the cache uses it as part
of every key.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
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

    _disengagements_by_manufacturer: Mapping[
        str, tuple[DisengagementRecord, ...]] = field(repr=False)
    _accidents_by_manufacturer: Mapping[
        str, tuple[AccidentRecord, ...]] = field(repr=False)
    _mileage_by_manufacturer: Mapping[
        str, tuple[MonthlyMileage, ...]] = field(repr=False)
    _disengagements_by_tag: Mapping[
        FaultTag, tuple[DisengagementRecord, ...]] = field(repr=False)
    _disengagements_by_category: Mapping[
        FailureCategory, tuple[DisengagementRecord, ...]] = field(
        repr=False)

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
        by_tag: dict[FaultTag, list] = defaultdict(list)
        by_category: dict[FailureCategory, list] = defaultdict(list)
        for record in db.disengagements:
            by_manufacturer[record.manufacturer].append(record)
            tag = record.tag
            if tag is not None:
                by_tag[tag].append(record)
                by_category[TAG_CATEGORY[tag]].append(record)

        accidents_by_manufacturer: dict[str, list] = defaultdict(list)
        for record in db.accidents:
            accidents_by_manufacturer[record.manufacturer].append(record)

        mileage_by_manufacturer: dict[str, list] = defaultdict(list)
        for cell in db.mileage:
            mileage_by_manufacturer[cell.manufacturer].append(cell)

        # Every manufacturer keys at least one of the three groupings,
        # so their union is ``db.manufacturers()`` without another pass.
        manufacturers = tuple(sorted(
            by_manufacturer.keys() | accidents_by_manufacturer.keys()
            | mileage_by_manufacturer.keys()))
        return cls(
            fingerprint=db.fingerprint(),
            manufacturers=manufacturers,
            _disengagements_by_manufacturer=_frozen(by_manufacturer),
            _accidents_by_manufacturer=_frozen(
                accidents_by_manufacturer),
            _mileage_by_manufacturer=_frozen(mileage_by_manufacturer),
            _disengagements_by_tag=_frozen(by_tag),
            _disengagements_by_category=_frozen(by_category),
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

    def disengagements_with_tag(self, tag: FaultTag,
                                ) -> tuple[DisengagementRecord, ...]:
        """Disengagement records carrying one NLP fault tag."""
        return self._disengagements_by_tag.get(tag, ())

    def disengagements_in_category(
            self, category: FailureCategory,
            ) -> tuple[DisengagementRecord, ...]:
        """Disengagement records in one root failure category."""
        return self._disengagements_by_category.get(category, ())

    @cached_property
    def months(self) -> tuple[str, ...]:
        """Every ``YYYY-MM`` month with a disengagement or a mileage
        cell, sorted.

        Computed on first read (``/v1/stats`` reads it), not in
        :meth:`build`: no ``/v1`` answer needs it.
        """
        months = {record.month
                  for records in self._disengagements_by_manufacturer.values()
                  for record in records}
        months.update(cell.month
                      for cells in self._mileage_by_manufacturer.values()
                      for cell in cells)
        return tuple(sorted(months))

    def summary(self) -> dict:
        """JSON-able description of the index (for ``/v1/stats``)."""
        return {
            "fingerprint": self.fingerprint,
            "manufacturers": len(self.manufacturers),
            "months": len(self.months),
            "tags": len(self._disengagements_by_tag),
            "categories": len(self._disengagements_by_category),
            "disengagements": _records(
                self._disengagements_by_manufacturer),
            "accidents": _records(self._accidents_by_manufacturer),
            "mileage_cells": _records(self._mileage_by_manufacturer),
        }


def _records(grouping: Mapping[str, tuple]) -> int:
    """How many records a by-manufacturer grouping holds."""
    return sum(len(records) for records in grouping.values())
