"""Tests for STPA rendering."""

import pytest

from repro.stpa.render import to_dot, to_outline
from repro.stpa.structure import build_control_structure


class TestRender:
    @pytest.fixture(scope="class")
    def structure(self):
        return build_control_structure()

    def test_dot_is_wellformed(self, structure):
        dot = to_dot(structure)
        assert dot.startswith("digraph control_structure {")
        assert dot.rstrip().endswith("}")
        assert dot.count("->") == structure.graph.number_of_edges()

    def test_dot_contains_all_nodes(self, structure):
        dot = to_dot(structure)
        for component in structure.components():
            assert f"  {component.name} [" in dot

    def test_dot_highlighting(self, structure):
        dot = to_dot(structure, highlight={"recognition": 10,
                                           "compute": 5})
        assert "style=filled" in dot
        assert "fillcolor" in dot

    def test_outline_lists_edges_both_ways(self, structure):
        outline = to_outline(structure)
        assert "recognition" in outline
        assert "-> planner_controller" in outline
        assert "<- sensors" in outline
