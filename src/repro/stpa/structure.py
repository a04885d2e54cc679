"""The hierarchical control structure as a typed directed graph."""

from __future__ import annotations

import enum

from ..errors import StpaError
from .components import STANDARD_COMPONENTS, Component


class EdgeKind(enum.Enum):
    """Kind of interaction an edge models."""

    CONTROL = "control action"
    FEEDBACK = "feedback"
    OBSERVATION = "observation"
    HOSTING = "hosting"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: One typed edge: (source, target, kind, label).
Edge = tuple[str, str, EdgeKind, str]

#: Edges of Fig. 3.
EDGES: tuple[Edge, ...] = (
    # The autonomy pipeline (CL-1 forward path).
    ("sensors", "recognition", EdgeKind.FEEDBACK,
     "environment measurements"),
    ("recognition", "planner_controller", EdgeKind.FEEDBACK,
     "object/scene state"),
    ("planner_controller", "follower", EdgeKind.CONTROL,
     "planned trajectory"),
    ("follower", "actuators", EdgeKind.CONTROL, "actuation commands"),
    ("actuators", "mechanical", EdgeKind.CONTROL, "physical actuation"),
    ("mechanical", "sensors", EdgeKind.FEEDBACK, "vehicle state"),
    # Safety-driver loop (CL-2).
    ("driver", "mechanical", EdgeKind.CONTROL,
     "manual steering/braking"),
    ("mechanical", "driver", EdgeKind.FEEDBACK, "vehicle behavior"),
    ("planner_controller", "driver", EdgeKind.FEEDBACK,
     "takeover request / disengagement alert"),
    ("driver", "planner_controller", EdgeKind.CONTROL,
     "engage/disengage autonomy"),
    # Interaction with other road users (CL-3).
    ("non_av_driver", "sensors", EdgeKind.OBSERVATION,
     "observed non-AV behavior"),
    ("mechanical", "non_av_driver", EdgeKind.OBSERVATION,
     "brake signals, indicators, motion cues"),
    # Substrate hosting.
    ("compute", "recognition", EdgeKind.HOSTING, "hosts perception"),
    ("compute", "planner_controller", EdgeKind.HOSTING, "hosts planner"),
    ("compute", "follower", EdgeKind.HOSTING, "hosts follower"),
    ("network", "compute", EdgeKind.HOSTING, "sensor/actuation traffic"),
    ("sensors", "network", EdgeKind.FEEDBACK, "raw sensor streams"),
)


class ControlStructure:
    """The Fig. 3 graph: :data:`STANDARD_COMPONENTS` joined by
    :data:`EDGES`."""

    def components(self) -> list[Component]:
        """All components."""
        return list(STANDARD_COMPONENTS.values())

    def edges_of_kind(self, kind: EdgeKind) -> list[tuple[str, str, str]]:
        """All (source, target, label) edges of the given kind, grouped
        by source in component order."""
        order = list(STANDARD_COMPONENTS)
        return [(source, target, label) for source, target, edge_kind, label
                in sorted(EDGES, key=lambda edge: order.index(edge[0]))
                if edge_kind is kind]

    def out_edges(self, name: str) -> list[Edge]:
        """The edges leaving ``name``."""
        return [edge for edge in EDGES if edge[0] == name]

    def in_edges(self, name: str) -> list[Edge]:
        """The edges entering ``name``."""
        return [edge for edge in EDGES if edge[1] == name]

    def validate(self) -> None:
        """Structural sanity checks (every endpoint a component, no
        orphans)."""
        for source, target, _, _ in EDGES:
            for name in (source, target):
                if name not in STANDARD_COMPONENTS:
                    raise StpaError(f"edge endpoint {name} is not a "
                                    "component")
        connected = {name for edge in EDGES for name in edge[:2]}
        for name in STANDARD_COMPONENTS:
            if name not in connected:
                raise StpaError(f"component {name} is disconnected")


def build_control_structure() -> ControlStructure:
    """Construct the Fig. 3 control structure."""
    structure = ControlStructure()
    structure.validate()
    return structure
