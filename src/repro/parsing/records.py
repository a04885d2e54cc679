"""Canonical record types produced by Stage II.

Every manufacturer-specific parser emits these records, so Stages III
and IV operate on one uniform schema regardless of the source format.
Optional fields are ``None`` when the manufacturer does not report them
(the dashes of Table I).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date
from typing import Any

from ..taxonomy import FailureCategory, FaultTag, Modality

#: ``(field, value -> member map, enum)`` for each enum-valued field of
#: :class:`DisengagementRecord`; the maps are built once so decoding a
#: database looks members up instead of calling ``Enum(value)``.
_ENUM_FIELDS = tuple(
    (key, {member.value: member for member in enum_cls}, enum_cls)
    for key, enum_cls in (("modality", Modality), ("tag", FaultTag),
                          ("category", FailureCategory),
                          ("truth_tag", FaultTag)))


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
        """Inverse of :meth:`to_dict`."""
        kwargs = dict(data)
        if kwargs.get("event_date"):
            kwargs["event_date"] = date.fromisoformat(kwargs["event_date"])
        if kwargs.get("time_of_day"):
            kwargs["time_of_day"] = tuple(kwargs["time_of_day"])
        for key, members, enum_cls in _ENUM_FIELDS:
            value = kwargs.get(key)
            if value:
                # An unknown value falls through to ``Enum(value)`` for
                # the usual ValueError.
                kwargs[key] = members.get(value) or enum_cls(value)
        return cls(**kwargs)


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
        """Inverse of :meth:`to_dict`."""
        kwargs = dict(data)
        if kwargs.get("event_date"):
            kwargs["event_date"] = date.fromisoformat(kwargs["event_date"])
        return cls(**kwargs)


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
        """Inverse of :meth:`to_dict`."""
        return cls(**data)


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
