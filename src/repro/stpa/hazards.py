"""Unsafe control actions and causal-factor localization.

STPA classifies unsafe control actions (UCAs) into four kinds; each
fault tag of Table III localizes to a component of the control
structure and a characteristic UCA kind.  This is the machinery behind
the paper's statement that tags "localize faults in the computing
system ... and in the machine learning algorithms/design".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import StpaError
from ..taxonomy import FaultTag


class UnsafeControlAction(enum.Enum):
    """STPA's four kinds of unsafe control action."""

    NOT_PROVIDED = "required action not provided"
    PROVIDED_UNSAFE = "unsafe action provided"
    WRONG_TIMING = "action provided too early/late or out of order"
    STOPPED_TOO_SOON = "action stopped too soon / applied too long"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class CausalFactor:
    """Localization of a fault tag onto the control structure."""

    tag: FaultTag
    component: str
    uca: UnsafeControlAction
    rationale: str


#: Tag -> causal factor.  Environment faults localize to the
#: recognition system (footnote 5: external factors are perception
#: problems — the system failed to interpret them in time).
_CAUSAL_FACTORS: dict[FaultTag, CausalFactor] = {
    factor.tag: factor for factor in [
        CausalFactor(
            FaultTag.ENVIRONMENT, "recognition",
            UnsafeControlAction.WRONG_TIMING,
            "External change not interpreted from sensor data in time."),
        CausalFactor(
            FaultTag.RECOGNITION_SYSTEM, "recognition",
            UnsafeControlAction.PROVIDED_UNSAFE,
            "Incorrect scene state fed to the planner."),
        CausalFactor(
            FaultTag.PLANNER, "planner_controller",
            UnsafeControlAction.PROVIDED_UNSAFE,
            "Inadequate control algorithm: wrong plan for the "
            "situation."),
        CausalFactor(
            FaultTag.DESIGN_BUG, "planner_controller",
            UnsafeControlAction.NOT_PROVIDED,
            "No behavior designed for the encountered situation."),
        CausalFactor(
            FaultTag.INCORRECT_BEHAVIOR_PREDICTION, "planner_controller",
            UnsafeControlAction.PROVIDED_UNSAFE,
            "Process model mispredicts other agents' behavior."),
        CausalFactor(
            FaultTag.AV_CONTROLLER_DECISION, "planner_controller",
            UnsafeControlAction.PROVIDED_UNSAFE,
            "Controller issues a wrong decision."),
        CausalFactor(
            FaultTag.AV_CONTROLLER_UNRESPONSIVE, "follower",
            UnsafeControlAction.NOT_PROVIDED,
            "Controller fails to execute commanded actions."),
        CausalFactor(
            FaultTag.SENSOR, "sensors",
            UnsafeControlAction.WRONG_TIMING,
            "Measurement missing or late (localization failure)."),
        CausalFactor(
            FaultTag.NETWORK, "network",
            UnsafeControlAction.WRONG_TIMING,
            "Feedback path saturated: data late or dropped."),
        CausalFactor(
            FaultTag.COMPUTER_SYSTEM, "compute",
            UnsafeControlAction.STOPPED_TOO_SOON,
            "Hosting substrate degrades or halts the controllers."),
        CausalFactor(
            FaultTag.SOFTWARE, "compute",
            UnsafeControlAction.STOPPED_TOO_SOON,
            "Software defect halts or corrupts a control process."),
        CausalFactor(
            FaultTag.HANG_CRASH, "compute",
            UnsafeControlAction.NOT_PROVIDED,
            "Watchdog detects a stalled control cycle."),
    ]
}


def causal_factor_for_tag(tag: FaultTag) -> CausalFactor | None:
    """Causal factor for ``tag`` (None for Unknown-T)."""
    if tag is FaultTag.UNKNOWN:
        return None
    factor = _CAUSAL_FACTORS.get(tag)
    if factor is None:
        raise StpaError(f"tag {tag} has no causal-factor mapping")
    return factor
