"""Overlay of failure records onto the control structure.

"Accidents and disengagements seen in the data were overlaid on this
structure" (Sec. III-B): each tagged disengagement localizes to a
component and an unsafe-control-action kind; the overlay aggregates
counts per component, per control loop, and per UCA kind.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from ..parsing.records import DisengagementRecord
from .control_loops import CONTROL_LOOPS
from .hazards import causal_factor_for_tag


@dataclass
class FailureOverlay:
    """Aggregated localization of failures onto the structure."""

    total: int = 0
    unlocalized: int = 0
    by_component: Counter = field(default_factory=Counter)
    by_uca: Counter = field(default_factory=Counter)
    #: (component, uca) -> count.
    by_component_uca: Counter = field(default_factory=Counter)

    def loop_counts(self) -> dict[str, int]:
        """Failures whose component participates in each control loop."""
        out = {}
        for name, loop in CONTROL_LOOPS.items():
            out[name] = sum(count for component, count
                            in self.by_component.items()
                            if component in loop.nodes)
        return out

    def dominant_component(self) -> str | None:
        """The component absorbing the most failures."""
        if not self.by_component:
            return None
        return self.by_component.most_common(1)[0][0]


def overlay_failures(records: list[DisengagementRecord]) -> FailureOverlay:
    """Overlay the records' NLP-assigned tags onto the control
    structure."""
    overlay = FailureOverlay()
    for record in records:
        tag = record.tag
        overlay.total += 1
        if tag is None:
            overlay.unlocalized += 1
            continue
        factor = causal_factor_for_tag(tag)
        if factor is None:
            overlay.unlocalized += 1
            continue
        overlay.by_component[factor.component] += 1
        overlay.by_uca[factor.uca] += 1
        overlay.by_component_uca[(factor.component, factor.uca)] += 1
    return overlay


__all__ = ["FailureOverlay", "overlay_failures"]
