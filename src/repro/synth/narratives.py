"""Natural-language disengagement narratives, by fault tag.

Each synthesized disengagement carries a human-style cause description
of the kind Table II shows ("Software module froze. As a result driver
safely disengaged and resumed manual control.").  Templates are grouped
by ground-truth fault tag; each template's core phrase carries the
signal the NLP dictionary must learn, while shared prefixes/suffixes
("driver safely disengaged...") provide realistic distractor text.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..taxonomy import FaultTag, Modality

#: Objects the recognition system can fail on.
_PERCEPTION_OBJECTS = (
    "the lead vehicle", "a pedestrian in the crosswalk", "a cyclist",
    "the traffic light state", "lane markings", "a stopped bus",
    "a merging vehicle", "cross traffic", "a traffic cone",
    "an overhead signal",
)

#: Maneuvers the planner can botch.
_PLANNER_SITUATIONS = (
    "an unprotected left turn", "a lane change on the freeway",
    "merging at the on-ramp", "a four-way stop", "a tight roundabout",
    "a double-parked truck", "yielding at the crosswalk",
    "an occluded intersection",
)

#: Environment surprises.
_ENVIRONMENT_EVENTS = (
    "a construction zone", "an emergency vehicle approaching",
    "a recklessly behaving road user", "heavy rain", "sun glare",
    "debris on the roadway", "an unexpected lane closure",
    "a vehicle running a red light", "an accident blocking the lane",
)

_SENSOR_NAMES = ("LIDAR", "RADAR", "GPS", "front camera", "SONAR",
                 "wheel-speed sensor", "IMU")

_SOFTWARE_MODULES = (
    "perception stack", "localization module", "logging daemon",
    "map service", "trajectory server", "diagnostics process",
    "vehicle interface process",
)


@dataclass(frozen=True)
class Template:
    """One narrative template; ``{x}`` slots filled from ``choices``."""

    text: str
    choices: tuple[str, ...] = ()

    def render(self, rng: np.random.Generator) -> str:
        """Fill the slot (if any) with a random choice.

        The pick is ``rng.choice(list(self.choices))`` without the
        list-to-array conversion: ``choice`` draws the same
        ``integers(len(choices))``.
        """
        choices = self.choices
        if "{x}" in self.text and choices:
            return self.text.replace(
                "{x}", choices[int(rng.integers(len(choices)))])
        return self.text


#: Narrative templates per ground-truth fault tag.  The leading phrase
#: is the discriminative core; tails are shared boilerplate.
TEMPLATES: dict[FaultTag, tuple[Template, ...]] = {
    FaultTag.ENVIRONMENT: (
        Template("Disengage for {x}", _ENVIRONMENT_EVENTS),
        Template("Encountered {x} ahead of the vehicle",
                 _ENVIRONMENT_EVENTS),
        Template("Sudden change in environment: {x}", _ENVIRONMENT_EVENTS),
        Template("External factor: {x} required manual takeover",
                 _ENVIRONMENT_EVENTS),
        Template("Weather conditions degraded beyond operating envelope"),
    ),
    FaultTag.COMPUTER_SYSTEM: (
        Template("Processor overload on the compute platform"),
        Template("Compute unit exceeded thermal limits"),
        Template("Memory exhaustion detected on the onboard computer"),
        Template("ECU reported an internal hardware fault"),
        Template("Compute platform rebooted unexpectedly"),
        Template("Disk subsystem error on the logging computer"),
    ),
    FaultTag.RECOGNITION_SYSTEM: (
        Template("The AV didn't see {x}", _PERCEPTION_OBJECTS),
        Template("Perception failed to detect {x}", _PERCEPTION_OBJECTS),
        Template("Recognition system misclassified {x}",
                 _PERCEPTION_OBJECTS),
        Template("False obstacle detection forced a hard brake"),
        Template("Failed to track {x} through the intersection",
                 _PERCEPTION_OBJECTS),
        Template("Perception system reported low confidence on {x}",
                 _PERCEPTION_OBJECTS),
    ),
    FaultTag.PLANNER: (
        Template("Planner failed to anticipate the other driver's "
                 "behavior during {x}", _PLANNER_SITUATIONS),
        Template("Improper motion planning during {x}",
                 _PLANNER_SITUATIONS),
        Template("Planner generated an infeasible trajectory for {x}",
                 _PLANNER_SITUATIONS),
        Template("Vehicle hesitated in {x} and blocked traffic",
                 _PLANNER_SITUATIONS),
        Template("Unwanted maneuver planned during {x}",
                 _PLANNER_SITUATIONS),
        Template("Path planner selected an incorrect lane for {x}",
                 _PLANNER_SITUATIONS),
    ),
    FaultTag.SENSOR: (
        Template("{x} failed to localize in time", _SENSOR_NAMES),
        Template("{x} signal lost", _SENSOR_NAMES),
        Template("{x} returns degraded below threshold", _SENSOR_NAMES),
        Template("Calibration drift detected on the {x}", _SENSOR_NAMES),
        Template("{x} dropout during autonomous operation", _SENSOR_NAMES),
    ),
    FaultTag.NETWORK: (
        Template("Data rate too high to be handled by the network"),
        Template("CAN bus saturation between sensor and compute"),
        Template("Message latency exceeded the network budget"),
        Template("Dropped packets on the vehicle network"),
        Template("Network switch fault interrupted sensor streams"),
    ),
    FaultTag.DESIGN_BUG: (
        Template("AV was not designed to handle {x}", _PLANNER_SITUATIONS),
        Template("Situation outside the operational design domain: {x}",
                 _PLANNER_SITUATIONS),
        Template("Unforeseen situation not covered by the design: {x}",
                 _PLANNER_SITUATIONS),
        Template("Feature gap: system has no behavior for {x}",
                 _PLANNER_SITUATIONS),
    ),
    FaultTag.SOFTWARE: (
        Template("Software module froze"),
        Template("Software crash in the {x}", _SOFTWARE_MODULES),
        Template("The {x} terminated unexpectedly", _SOFTWARE_MODULES),
        Template("Software bug triggered a fault in the {x}",
                 _SOFTWARE_MODULES),
        Template("Software hang detected in the {x}", _SOFTWARE_MODULES),
        Template("Unhandled exception logged by the {x}",
                 _SOFTWARE_MODULES),
    ),
    FaultTag.AV_CONTROLLER_UNRESPONSIVE: (
        Template("AV controller did not respond to commands"),
        Template("Actuation command timeout in the AV controller"),
        Template("Steering command was not executed by the controller"),
        Template("Controller stopped acknowledging actuation requests"),
    ),
    FaultTag.AV_CONTROLLER_DECISION: (
        Template("AV controller made a wrong deceleration decision"),
        Template("Controller issued an incorrect throttle decision"),
        Template("Wrong control decision at low speed"),
        Template("Controller chose an incorrect gap for the merge"),
    ),
    FaultTag.HANG_CRASH: (
        Template("Takeover-Request — watchdog error"),
        Template("Watchdog timer expired on the autonomy computer"),
        Template("Watchdog error forced a takeover request"),
        Template("System watchdog detected a stalled control cycle"),
    ),
    FaultTag.INCORRECT_BEHAVIOR_PREDICTION: (
        Template("Incorrect behavior prediction"),
        Template("Incorrect behavior prediction of an adjacent vehicle"),
        Template("Predicted cut-in did not occur; prediction incorrect"),
        Template("Behavior prediction missed a vehicle's sudden stop"),
    ),
    FaultTag.UNKNOWN: (
        Template("Driver disengaged"),
        Template("Disengagement"),
        Template("Manual takeover"),
        Template("Disengaged autonomous mode"),
        Template("Driver elected to take control"),
    ),
}

#: Boilerplate tails appended to some narratives (distractor text the
#: tagger must ignore).
_TAILS = (
    "As a result driver safely disengaged and resumed manual control.",
    "Driver safely disengaged and resumed manual control.",
    "Test driver took immediate manual control.",
    "Safe disengagement; no contact.",
    "",
    "",
)

#: Modality-specific lead-ins.
_MODALITY_LEADS: dict[Modality, tuple[str, ...]] = {
    Modality.AUTOMATIC: ("Auto disengagement: ", "Takeover-Request — ", ""),
    Modality.MANUAL: ("Driver initiated: ", "Precautionary takeover: ", ""),
    Modality.PLANNED: ("Planned test: ", "Planned fault injection: "),
}


class NarrativeGenerator:
    """Render ground-truth fault tags into natural-language narratives."""

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng

    def narrative(self, tag: FaultTag,
                  modality: Modality | None = None) -> str:
        """Generate one cause description for ``tag``."""
        templates = TEMPLATES[tag]
        template = templates[int(self._rng.integers(len(templates)))]
        core = template.render(self._rng)
        lead = ""
        if modality is not None and self._rng.random() < 0.5:
            leads = _MODALITY_LEADS[modality]
            lead = leads[int(self._rng.integers(len(leads)))]
        tail = _TAILS[int(self._rng.integers(len(_TAILS)))]
        text = f"{lead}{core}"
        if tail:
            joiner = ". " if not text.endswith((".", "—", "-")) else " "
            text = f"{text}{joiner}{tail}"
        return text