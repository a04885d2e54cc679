"""Canonical record types produced by Stage II.

Every manufacturer-specific parser emits these records, so Stages III
and IV operate on one uniform schema regardless of the source format.
Optional fields are ``None`` when the manufacturer does not report them
(the dashes of Table I).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from datetime import date
from operator import itemgetter
from typing import Any, Callable

from ..taxonomy import (
    CATEGORY_BY_VALUE,
    MODALITY_BY_VALUE,
    TAG_BY_VALUE,
    FailureCategory,
    FaultTag,
    Modality,
)


@dataclass
class DisengagementRecord:
    """One disengagement event in canonical form.

    ``tag`` and ``category`` are ``None`` until Stage III (NLP) assigns
    them; ``truth_tag`` carries the synthesizer's ground truth when the
    record originates from the synthetic corpus (out-of-band data that a
    real deployment would not have — used only for evaluation).
    """

    manufacturer: str
    #: Calendar month of the event, ``YYYY-MM``.
    month: str
    #: Exact event date when the manufacturer reports day granularity.
    event_date: date | None = None
    #: Wall-clock time as (hour, minute, second), when reported.
    time_of_day: tuple[int, int, int] | None = None
    #: Vehicle identifier (fleet-local name or VIN suffix), if reported.
    vehicle_id: str | None = None
    #: Who initiated the disengagement.
    modality: Modality | None = None
    #: Road type string, normalized lowercase, when reported.
    road_type: str | None = None
    #: Weather string, when reported.
    weather: str | None = None
    #: Driver reaction time in seconds, when reported.
    reaction_time_s: float | None = None
    #: The raw natural-language cause description.
    description: str = ""
    #: NLP-assigned fault tag / failure category (Stage III).
    tag: FaultTag | None = None
    category: FailureCategory | None = None
    #: Ground-truth tag attached by the synthesizer (evaluation only).
    truth_tag: FaultTag | None = None
    #: Provenance: source document id and line number.
    source_document: str | None = None
    source_line: int | None = None

    @property
    def year(self) -> int:
        """Calendar year of the event."""
        return int(self.month[:4])

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable dictionary form (enums/dates stringified).

        Built by hand rather than via :func:`dataclasses.asdict`: the
        checkpoint journal serializes every record as it completes,
        and ``asdict``'s recursive deep-copy dominates that cost.
        """
        return {
            "manufacturer": self.manufacturer,
            "month": self.month,
            "event_date": (self.event_date.isoformat()
                           if self.event_date else None),
            "time_of_day": (list(self.time_of_day)
                            if self.time_of_day else None),
            "vehicle_id": self.vehicle_id,
            "modality": self.modality.value if self.modality else None,
            "road_type": self.road_type,
            "weather": self.weather,
            "reaction_time_s": self.reaction_time_s,
            "description": self.description,
            "tag": self.tag.value if self.tag else None,
            "category": self.category.value if self.category else None,
            "truth_tag": (self.truth_tag.value
                          if self.truth_tag else None),
            "source_document": self.source_document,
            "source_line": self.source_line,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "DisengagementRecord":
        """Inverse of :meth:`to_dict` (see *Decoding* below)."""
        if type(data) is dict and len(data) == _DISENGAGEMENT_SIZE:
            try:
                (manufacturer, month, event_date, time_of_day, vehicle_id,
                 modality, road_type, weather, reaction_time_s,
                 description, tag, category, truth_tag, source_document,
                 source_line) = _disengagement_values(data)
                return cls(
                    manufacturer, month,
                    event_date and date.fromisoformat(event_date),
                    time_of_day and tuple(time_of_day), vehicle_id,
                    modality and MODALITY_BY_VALUE[modality], road_type,
                    weather, reaction_time_s, description,
                    tag and TAG_BY_VALUE[tag],
                    category and CATEGORY_BY_VALUE[category],
                    truth_tag and TAG_BY_VALUE[truth_tag],
                    source_document, source_line)
            except (KeyError, TypeError, ValueError):
                pass
        return _decode(cls, data, _DISENGAGEMENT_CONVERSIONS)


@dataclass
class AccidentRecord:
    """One accident (OL-316) report in canonical form."""

    manufacturer: str
    event_date: date | None = None
    #: Calendar month, ``YYYY-MM``; derivable from ``event_date``.
    month: str | None = None
    #: Location description ("X St and Y Ave, Mountain View, CA").
    location: str | None = None
    #: Whether the AV was in autonomous mode at the moment of collision.
    autonomous_at_collision: bool | None = None
    #: Whether the safety driver disengaged before the collision.
    disengaged_before_collision: bool | None = None
    #: Speeds at collision, mph.
    av_speed_mph: float | None = None
    other_speed_mph: float | None = None
    #: Collision type ("rear-end", "side-swipe", ...).
    collision_type: str | None = None
    #: Whether any injury was reported.
    injuries: bool = False
    #: Whether the DMV redacted vehicle identification.
    redacted: bool = False
    vehicle_id: str | None = None
    #: Narrative description of the incident.
    description: str = ""
    source_document: str | None = None

    @property
    def relative_speed_mph(self) -> float | None:
        """Absolute speed difference of the colliding vehicles, mph."""
        if self.av_speed_mph is None or self.other_speed_mph is None:
            return None
        return abs(self.av_speed_mph - self.other_speed_mph)

    @property
    def year(self) -> int | None:
        """Calendar year of the accident, if dated."""
        if self.event_date is not None:
            return self.event_date.year
        if self.month is not None:
            return int(self.month[:4])
        return None

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable dictionary form."""
        return {
            "manufacturer": self.manufacturer,
            "event_date": (self.event_date.isoformat()
                           if self.event_date else None),
            "month": self.month,
            "location": self.location,
            "autonomous_at_collision": self.autonomous_at_collision,
            "disengaged_before_collision":
                self.disengaged_before_collision,
            "av_speed_mph": self.av_speed_mph,
            "other_speed_mph": self.other_speed_mph,
            "collision_type": self.collision_type,
            "injuries": self.injuries,
            "redacted": self.redacted,
            "vehicle_id": self.vehicle_id,
            "description": self.description,
            "source_document": self.source_document,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "AccidentRecord":
        """Inverse of :meth:`to_dict` (see *Decoding* below)."""
        if type(data) is dict and len(data) == _ACCIDENT_SIZE:
            try:
                manufacturer, event_date, *rest = _accident_values(data)
                return cls(manufacturer,
                           event_date and date.fromisoformat(event_date),
                           *rest)
            except (KeyError, TypeError, ValueError):
                pass
        return _decode(cls, data, _ACCIDENT_CONVERSIONS)


@dataclass
class MonthlyMileage:
    """Autonomous miles driven by one vehicle in one month."""

    manufacturer: str
    month: str
    miles: float
    vehicle_id: str | None = None

    @property
    def year(self) -> int:
        """Calendar year."""
        return int(self.month[:4])

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable dictionary form."""
        return {
            "manufacturer": self.manufacturer,
            "month": self.month,
            "miles": self.miles,
            "vehicle_id": self.vehicle_id,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "MonthlyMileage":
        """Inverse of :meth:`to_dict` (see *Decoding* below)."""
        if type(data) is dict and len(data) == _MILEAGE_SIZE:
            try:
                return cls(*_mileage_values(data))
            except KeyError:
                pass
        return cls(**data)


# ----------------------------------------------------------------------
# Decoding.  Every encoder (``to_dict``, and ``vars()`` in the database
# and the checkpoint journals) writes every field, so ``from_dict``
# first reads the values by position: a dict of the fields' size from
# which an ``itemgetter`` over the field names succeeds has exactly the
# fields as keys.  Dates, time tuples and enum values convert inline,
# and a falsy value stays as it is, as in :func:`_decode`.  Any other
# dict (a missing optional field, an extra key) and any value the
# inline conversion rejects (an unknown enum value) goes to
# :func:`_decode`, which builds the record from keyword arguments and
# raises what a bad field deserves.
# ----------------------------------------------------------------------

def _member(by_value: dict, enum_cls: type) -> Callable[[Any], Any]:
    """``enum_cls(value)`` through its value -> member map (an
    unhashable value raises ``TypeError``, as the lookup does)."""
    return lambda value: by_value.get(value) or enum_cls(value)


def _decode(cls: type, data: Any,
            conversions: tuple[tuple[str, Callable], ...]) -> Any:
    """``cls(**data)`` with each truthy field of ``conversions``
    converted first."""
    kwargs = dict(data)
    for key, convert in conversions:
        value = kwargs.get(key)
        if value:
            kwargs[key] = convert(value)
    return cls(**kwargs)


def _field_getter(cls: type) -> tuple[int, Callable[[dict], tuple]]:
    """The number of ``cls``'s fields and an ``itemgetter`` over their
    names, in declaration (positional) order."""
    names = [item.name for item in fields(cls)]
    return len(names), itemgetter(*names)


_DISENGAGEMENT_SIZE, _disengagement_values = _field_getter(
    DisengagementRecord)
_ACCIDENT_SIZE, _accident_values = _field_getter(AccidentRecord)
_MILEAGE_SIZE, _mileage_values = _field_getter(MonthlyMileage)

_DISENGAGEMENT_CONVERSIONS = (
    ("event_date", date.fromisoformat),
    ("time_of_day", tuple),
    ("modality", _member(MODALITY_BY_VALUE, Modality)),
    ("tag", _member(TAG_BY_VALUE, FaultTag)),
    ("category", _member(CATEGORY_BY_VALUE, FailureCategory)),
    ("truth_tag", _member(TAG_BY_VALUE, FaultTag)),
)
_ACCIDENT_CONVERSIONS = (("event_date", date.fromisoformat),)


@dataclass
class ParsedReport:
    """Everything Stage II recovered from one raw report document."""

    manufacturer: str
    document_id: str
    disengagements: list[DisengagementRecord] = field(default_factory=list)
    mileage: list[MonthlyMileage] = field(default_factory=list)
    #: Lines that no parser rule matched (kept for audit).
    unparsed_lines: list[str] = field(default_factory=list)

    @property
    def total_miles(self) -> float:
        """Total autonomous miles in this report."""
        return sum(m.miles for m in self.mileage)
