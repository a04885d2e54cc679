"""Rendering of the control structure: Graphviz DOT and text outline.

``to_dot`` emits a DOT document (no graphviz dependency — the string
is valid input for any renderer); ``to_outline`` prints the structure
as an indented text tree for terminals.
"""

from __future__ import annotations

from .components import ComponentKind
from .structure import ControlStructure, EdgeKind

_KIND_SHAPES = {
    ComponentKind.HUMAN: "ellipse",
    ComponentKind.CONTROLLER: "box",
    ComponentKind.SENSOR: "parallelogram",
    ComponentKind.ACTUATOR: "trapezium",
    ComponentKind.PROCESS: "box3d",
    ComponentKind.SUBSTRATE: "component",
}

_EDGE_STYLES = {
    EdgeKind.CONTROL: "solid",
    EdgeKind.FEEDBACK: "dashed",
    EdgeKind.OBSERVATION: "dotted",
    EdgeKind.HOSTING: "bold",
}


def _quote(text: str) -> str:
    return '"' + text.replace('"', r"\"") + '"'


def to_dot(structure: ControlStructure,
           highlight: dict[str, int] | None = None) -> str:
    """Render the structure as a Graphviz DOT digraph.

    ``highlight`` optionally maps component names to failure counts;
    highlighted nodes are filled with an intensity proportional to
    their share.
    """
    highlight = highlight or {}
    peak = max(highlight.values()) if highlight else 0
    lines = ["digraph control_structure {",
             "  rankdir=TB;",
             "  node [fontname=\"Helvetica\"];"]
    for component in structure.components():
        attrs = [f"shape={_KIND_SHAPES[component.kind]}",
                 f"label={_quote(component.name)}"]
        count = highlight.get(component.name, 0)
        if peak > 0 and count > 0:
            # Grayscale fill: heavier failure sites are darker.
            intensity = int(90 - 50 * count / peak)
            attrs.append("style=filled")
            attrs.append(f'fillcolor="gray{intensity}"')
        lines.append(f"  {component.name} [{', '.join(attrs)}];")
    for kind in EdgeKind:
        for source, target, label in structure.edges_of_kind(kind):
            lines.append(
                f"  {source} -> {target} "
                f"[style={_EDGE_STYLES[kind]}, "
                f"label={_quote(label)}];")
    lines.append("}")
    return "\n".join(lines)


def to_outline(structure: ControlStructure) -> str:
    """Indented text outline: each component with its in/out edges."""
    lines = []
    for component in structure.components():
        lines.append(f"{component.name} [{component.kind}]")
        for _, target, kind, label in structure.out_edges(component.name):
            lines.append(f"  -> {target}  ({kind}: {label})")
        for source, _, kind, label in structure.in_edges(component.name):
            lines.append(f"  <- {source}  ({kind}: {label})")
    return "\n".join(lines)
