"""Canonical fault taxonomy from the paper (Table III and Fig. 6).

The taxonomy has two levels:

* **Fault tags** — the fine-grained labels assigned to each
  disengagement by the NLP engine (Table III plus the ``Incorrect
  Behavior Prediction`` tag that appears in Fig. 6, and the
  ``Unknown-T`` catch-all).
* **Failure categories** — the coarse STPA-derived grouping used for
  the headline statistics: ``ML/Design`` vs. ``System`` vs.
  ``Unknown-C``.  ML/Design is further split into *perception*
  (recognition-side) and *planner/controller* (decision-side) faults,
  which is the split Table IV reports.

The ``AV Controller`` tag is ambiguous in the paper: it maps to
``System`` when the controller does not respond to commands and to
``ML/Design`` when the controller makes wrong decisions.  We model the
two situations as distinct tags (``AV Controller (unresponsive)`` and
``AV Controller (decision)``) that render under the same display name.
"""

from __future__ import annotations

import enum
from operator import attrgetter

#: ``value`` read in C: ``enum.property`` runs a Python frame on every
#: read, and orjson reads it to encode a member.  Each enum below pairs
#: it with ``__hash__ = object.__hash__``, since ``Enum.__hash__`` runs
#: Python code on every dict or set lookup.
_VALUE = property(attrgetter("_value_"))


class FailureCategory(enum.Enum):
    """Coarse STPA-derived failure category (Table III/IV)."""

    # Identity hash and a C-level ``value``: see ``_VALUE``.
    __hash__ = object.__hash__
    value = _VALUE

    ML_DESIGN = "ML/Design"
    SYSTEM = "System"
    UNKNOWN = "Unknown-C"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class MlSubcategory(enum.Enum):
    """The Table IV split of ML/Design faults."""

    # Identity hash and a C-level ``value``: see ``_VALUE``.
    __hash__ = object.__hash__
    value = _VALUE

    PERCEPTION = "Perception/Recognition"
    PLANNER = "Planner/Controller"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class FaultTag(enum.Enum):
    """Fine-grained fault tag (Table III + Fig. 6)."""

    # Identity hash and a C-level ``value``: see ``_VALUE``.
    __hash__ = object.__hash__
    value = _VALUE

    ENVIRONMENT = "Environment"
    COMPUTER_SYSTEM = "Computer System"
    RECOGNITION_SYSTEM = "Recognition System"
    PLANNER = "Planner"
    SENSOR = "Sensor"
    NETWORK = "Network"
    DESIGN_BUG = "Design Bug"
    SOFTWARE = "Software"
    AV_CONTROLLER_UNRESPONSIVE = "AV Controller (unresponsive)"
    AV_CONTROLLER_DECISION = "AV Controller (decision)"
    HANG_CRASH = "Hang/Crash"
    INCORRECT_BEHAVIOR_PREDICTION = "Incorrect Behavior Prediction"
    UNKNOWN = "Unknown-T"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value

    @property
    def display_name(self) -> str:
        """Name used in figures; the two AV Controller tags collapse."""
        if self in (FaultTag.AV_CONTROLLER_UNRESPONSIVE,
                    FaultTag.AV_CONTROLLER_DECISION):
            return "AV Controller"
        return self.value


class Modality(enum.Enum):
    """How a disengagement was initiated (Table V)."""

    # Identity hash and a C-level ``value``: see ``_VALUE``.
    __hash__ = object.__hash__
    value = _VALUE

    AUTOMATIC = "Automatic"
    MANUAL = "Manual"
    PLANNED = "Planned"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: Value -> member, for decoders: a dict lookup where ``Enum(value)``
#: would run Python code per call.
TAG_BY_VALUE: dict[str, FaultTag] = {tag.value: tag for tag in FaultTag}
CATEGORY_BY_VALUE: dict[str, FailureCategory] = {
    category.value: category for category in FailureCategory}
MODALITY_BY_VALUE: dict[str, Modality] = {
    modality.value: modality for modality in Modality}

#: Tag -> coarse category (Table III).
TAG_CATEGORY: dict[FaultTag, FailureCategory] = {
    FaultTag.ENVIRONMENT: FailureCategory.ML_DESIGN,
    FaultTag.COMPUTER_SYSTEM: FailureCategory.SYSTEM,
    FaultTag.RECOGNITION_SYSTEM: FailureCategory.ML_DESIGN,
    FaultTag.PLANNER: FailureCategory.ML_DESIGN,
    FaultTag.SENSOR: FailureCategory.SYSTEM,
    FaultTag.NETWORK: FailureCategory.SYSTEM,
    FaultTag.DESIGN_BUG: FailureCategory.ML_DESIGN,
    FaultTag.SOFTWARE: FailureCategory.SYSTEM,
    FaultTag.AV_CONTROLLER_UNRESPONSIVE: FailureCategory.SYSTEM,
    FaultTag.AV_CONTROLLER_DECISION: FailureCategory.ML_DESIGN,
    FaultTag.HANG_CRASH: FailureCategory.SYSTEM,
    FaultTag.INCORRECT_BEHAVIOR_PREDICTION: FailureCategory.ML_DESIGN,
    FaultTag.UNKNOWN: FailureCategory.UNKNOWN,
}

#: ML/Design tag -> Table IV subcategory.  Environment faults (construction
#: zones, weather, reckless road users) count as perception per the paper's
#: footnote 5: "we consider external fault sources ... as perception-related
#: machine-learning related disengagements".
ML_SUBCATEGORY: dict[FaultTag, MlSubcategory] = {
    FaultTag.ENVIRONMENT: MlSubcategory.PERCEPTION,
    FaultTag.RECOGNITION_SYSTEM: MlSubcategory.PERCEPTION,
    FaultTag.PLANNER: MlSubcategory.PLANNER,
    FaultTag.DESIGN_BUG: MlSubcategory.PLANNER,
    FaultTag.AV_CONTROLLER_DECISION: MlSubcategory.PLANNER,
    FaultTag.INCORRECT_BEHAVIOR_PREDICTION: MlSubcategory.PLANNER,
}

#: Table III definition strings, keyed by tag, for documentation output.
TAG_DEFINITIONS: dict[FaultTag, str] = {
    FaultTag.ENVIRONMENT: (
        "Sudden change in external factors (e.g., construction zones, "
        "emergency vehicles, accidents)"),
    FaultTag.COMPUTER_SYSTEM: (
        "Computer-system-related problem (e.g., processor overload)"),
    FaultTag.RECOGNITION_SYSTEM: (
        "Failure to recognize outside environment correctly"),
    FaultTag.PLANNER: (
        "Planner failed to anticipate the other driver's behavior"),
    FaultTag.SENSOR: "Sensor failed to localize in time",
    FaultTag.NETWORK: "Data rate too high to be handled by the network",
    FaultTag.DESIGN_BUG: (
        "AV was not designed to handle an unforeseen situation"),
    FaultTag.SOFTWARE: (
        "Software-related problems such as hang or crash"),
    FaultTag.AV_CONTROLLER_UNRESPONSIVE: (
        "AV controller does not respond to commands"),
    FaultTag.AV_CONTROLLER_DECISION: (
        "AV controller makes wrong decisions/predictions"),
    FaultTag.HANG_CRASH: "Watchdog timer error",
    FaultTag.INCORRECT_BEHAVIOR_PREDICTION: (
        "Incorrect prediction of another road user's behavior"),
    FaultTag.UNKNOWN: (
        "No known tag could be associated with the textual description"),
}


def category_of(tag: FaultTag) -> FailureCategory:
    """Return the coarse failure category for ``tag``."""
    return TAG_CATEGORY[tag]


def ml_subcategory_of(tag: FaultTag) -> MlSubcategory | None:
    """Return the Table IV ML/Design split for ``tag`` (None outside ML)."""
    return ML_SUBCATEGORY.get(tag)
