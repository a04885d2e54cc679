"""Tests for the STPA control-structure model."""

from dataclasses import replace

import pytest

from repro.errors import StpaError
from repro.parsing.records import DisengagementRecord
from repro.stpa import structure as structure_module
from repro.stpa.components import STANDARD_COMPONENTS
from repro.stpa.control_loops import CONTROL_LOOPS
from repro.stpa.hazards import UnsafeControlAction, causal_factor_for_tag
from repro.stpa.mapping import overlay_failures
from repro.stpa.structure import EDGES, EdgeKind, build_control_structure
from repro.taxonomy import FaultTag

#: (source, target) of every Fig. 3 edge.
PAIRS = {(source, target) for source, target, _, _ in EDGES}


@pytest.fixture(scope="module")
def structure():
    return build_control_structure()


def _closes(nodes: tuple[str, ...]) -> bool:
    """Whether the node sequence closes a cycle of Fig. 3 edges."""
    cycle = [*nodes, nodes[0]]
    return all(pair in PAIRS for pair in zip(cycle, cycle[1:]))


class TestStructure:
    def test_validates(self, structure):
        structure.validate()

    def test_all_components_present(self, structure):
        names = {c.name for c in structure.components()}
        assert names == set(STANDARD_COMPONENTS)

    def test_autonomy_pipeline_edges(self):
        assert {("sensors", "recognition"),
                ("recognition", "planner_controller"),
                ("planner_controller", "follower"),
                ("follower", "actuators"),
                ("actuators", "mechanical")} <= PAIRS

    def test_driver_receives_takeover_requests(self, structure):
        assert ("planner_controller", EdgeKind.FEEDBACK) in {
            (source, kind) for source, _, kind, _
            in structure.in_edges("driver")}

    def test_mechanical_is_controlled_by_driver_and_actuators(
            self, structure):
        controllers = {source for source, _, kind, _
                       in structure.in_edges("mechanical")
                       if kind is EdgeKind.CONTROL}
        assert {"driver", "actuators"} <= controllers

    def test_observation_edges_model_non_av_interaction(self, structure):
        observations = structure.edges_of_kind(EdgeKind.OBSERVATION)
        pairs = {(u, v) for u, v, _ in observations}
        assert ("non_av_driver", "sensors") in pairs
        assert ("mechanical", "non_av_driver") in pairs

    def test_unknown_component_raises(self, structure, monkeypatch):
        monkeypatch.setattr(structure_module, "EDGES", (
            *EDGES, ("driver", "flux_capacitor", EdgeKind.CONTROL, "x")))
        with pytest.raises(StpaError, match="flux_capacitor"):
            structure.validate()

    def test_disconnected_component_raises(self, structure, monkeypatch):
        monkeypatch.setattr(structure_module, "EDGES", tuple(
            edge for edge in EDGES if "network" not in edge[:2]))
        with pytest.raises(StpaError, match="network is disconnected"):
            structure.validate()

    def test_edges_group_by_source_in_component_order(self, structure):
        order = list(STANDARD_COMPONENTS)
        for kind in EdgeKind:
            sources = [order.index(source) for source, _, _
                       in structure.edges_of_kind(kind)]
            assert sources == sorted(sources)


class TestControlLoops:
    def test_three_loops_defined(self):
        assert set(CONTROL_LOOPS) == {"CL-1", "CL-2", "CL-3"}

    def test_cl2_closes_in_graph(self):
        assert _closes(CONTROL_LOOPS["CL-2"].nodes)

    def test_cl3_closes_in_graph(self):
        assert _closes(CONTROL_LOOPS["CL-3"].nodes)

    def test_cl1_includes_non_av_driver(self):
        assert "non_av_driver" in CONTROL_LOOPS["CL-1"].nodes


class TestCausalFactors:
    def test_every_tag_localizes(self):
        for tag in FaultTag:
            if tag is FaultTag.UNKNOWN:
                assert causal_factor_for_tag(tag) is None
            else:
                factor = causal_factor_for_tag(tag)
                assert factor.component in STANDARD_COMPONENTS

    def test_perception_faults_map_to_recognition(self):
        assert causal_factor_for_tag(
            FaultTag.RECOGNITION_SYSTEM).component == "recognition"
        assert causal_factor_for_tag(
            FaultTag.ENVIRONMENT).component == "recognition"

    def test_substrate_faults_map_to_compute(self):
        for tag in (FaultTag.SOFTWARE, FaultTag.COMPUTER_SYSTEM,
                    FaultTag.HANG_CRASH):
            assert causal_factor_for_tag(tag).component == "compute"

    def test_watchdog_is_not_provided_uca(self):
        factor = causal_factor_for_tag(FaultTag.HANG_CRASH)
        assert factor.uca is UnsafeControlAction.NOT_PROVIDED

    def test_all_factors_have_rationales(self):
        for tag in FaultTag:
            if tag is not FaultTag.UNKNOWN:
                assert causal_factor_for_tag(tag).rationale


class TestOverlay:
    def _records(self):
        tags = [FaultTag.RECOGNITION_SYSTEM, FaultTag.RECOGNITION_SYSTEM,
                FaultTag.PLANNER, FaultTag.SOFTWARE, FaultTag.UNKNOWN]
        return [DisengagementRecord(
            manufacturer="X", month="2015-01", description="d",
            tag=tag) for tag in tags]

    def test_counts(self):
        overlay = overlay_failures(self._records())
        assert overlay.total == 5
        assert overlay.unlocalized == 1
        assert overlay.by_component["recognition"] == 2
        assert overlay.by_component["planner_controller"] == 1
        assert overlay.by_component["compute"] == 1

    def test_component_share(self):
        overlay = overlay_failures(self._records())
        localized = overlay.total - overlay.unlocalized
        assert overlay.by_component["recognition"] / localized == \
            pytest.approx(0.5)

    def test_dominant_component(self):
        overlay = overlay_failures(self._records())
        assert overlay.dominant_component() == "recognition"

    def test_loop_counts_cover_cl1(self):
        overlay = overlay_failures(self._records())
        loops = overlay.loop_counts()
        # recognition and planner are in CL-1; compute is not.
        assert loops["CL-1"] == 3

    def test_truth_overlay(self, db):
        overlay = overlay_failures([replace(record, tag=record.truth_tag)
                                    for record in db.disengagements])
        assert overlay.total == len(db.disengagements)
        # Perception dominates (the paper's central finding).
        assert overlay.dominant_component() == "recognition"

    def test_untagged_records_unlocalized(self):
        records = [DisengagementRecord(
            manufacturer="X", month="2015-01", description="d")]
        overlay = overlay_failures(records)
        assert overlay.unlocalized == 1
