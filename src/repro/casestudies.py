"""The two Section II case studies as structured scenarios.

Both accidents happened in Mountain View, CA, to Waymo prototypes in
autonomous mode, and both were legally the other driver's fault while
the analysis assigns the AV a significant share of responsibility.
Each case study is encoded as an ordered chain of events over the
Fig. 3 control structure: the causal chain the paper narrates, which
Fig. 2 prints.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .taxonomy import FaultTag


@dataclass(frozen=True)
class CaseEvent:
    """One step of a case-study event chain."""

    actor: str        # a control-structure component
    action: str
    #: Seconds from the scenario start (coarse reconstruction).
    at_seconds: float


@dataclass(frozen=True)
class CaseStudy:
    """One of the paper's two accident case studies."""

    name: str
    summary: str
    location: str
    #: The disengagement-report wording the paper quotes.
    reported_causes: tuple[str, ...]
    #: Fault tags the analysis assigns.
    tags: tuple[FaultTag, ...]
    #: The control loop implicated (Fig. 3).
    control_loop: str
    events: tuple[CaseEvent, ...] = field(default_factory=tuple)
    collision_type: str = "rear-end"
    at_fault_legally: str = "non-AV driver"


CASE_STUDY_1 = CaseStudy(
    name="Case Study I: Real-Time Decisions",
    summary=(
        "At an intersection a pedestrian began to cross; the AV "
        "decided to yield but did not stop.  The test driver "
        "proactively took control, but with a car ahead also yielding "
        "and a vehicle changing lanes behind, braking was the only "
        "option, and the rear vehicle collided with the AV."),
    location="South Shoreline Blvd, Mountain View, CA",
    reported_causes=(
        "Disengage for a recklessly behaving road user",
        "incorrect behavior prediction",
    ),
    tags=(FaultTag.ENVIRONMENT, FaultTag.INCORRECT_BEHAVIOR_PREDICTION),
    control_loop="CL-1",
    events=(
        CaseEvent("non_av_driver", "pedestrian starts crossing", 0.0),
        CaseEvent("sensors", "pedestrian observed", 0.2),
        CaseEvent("recognition",
                  "evolving scene inferred too late", 0.8),
        CaseEvent("planner_controller",
                  "decides to yield but does not stop", 1.2),
        CaseEvent("driver", "proactively takes control", 2.0),
        CaseEvent("driver", "brakes (only available action)", 2.4),
        CaseEvent("non_av_driver",
                  "rear vehicle collides with the AV", 3.0),
    ),
    collision_type="rear-end",
)

CASE_STUDY_2 = CaseStudy(
    name="Case Study II: Anticipating AV Behavior",
    summary=(
        "The AV signaled a right turn, decelerated, stopped "
        "completely, then crept toward the intersection so the "
        "recognition system could see cross traffic.  The driver "
        "behind read the creep as the turn proceeding, stopped when "
        "the AV stopped, started when it started, and hit the AV "
        "from behind."),
    location="El Camino Real and Clark Ave, Mountain View, CA",
    reported_causes=(
        "Disengage for a recklessly behaving road user",
    ),
    tags=(FaultTag.ENVIRONMENT,),
    control_loop="CL-1",
    events=(
        CaseEvent("planner_controller",
                  "signals right turn, decelerates", 0.0),
        CaseEvent("actuators", "vehicle comes to a complete stop", 2.0),
        CaseEvent("recognition",
                  "needs motion to analyze cross traffic", 2.5),
        CaseEvent("planner_controller",
                  "creeps toward intersection for visibility", 3.0),
        CaseEvent("non_av_driver",
                  "misreads the creep as the turn proceeding", 3.5),
        CaseEvent("non_av_driver",
                  "rear vehicle collides with the AV", 4.5),
    ),
    collision_type="rear-end",
)

CASE_STUDIES: tuple[CaseStudy, ...] = (CASE_STUDY_1, CASE_STUDY_2)
