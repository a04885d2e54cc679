"""Tests for the STPA control-structure model."""

import pytest

from repro.errors import StpaError
from repro.parsing.records import DisengagementRecord
from repro.stpa.components import STANDARD_COMPONENTS
from repro.stpa.control_loops import CONTROL_LOOPS
from repro.stpa.hazards import UnsafeControlAction, causal_factor_for_tag
from repro.stpa.mapping import overlay_failures
from repro.stpa.structure import EdgeKind, build_control_structure
from repro.taxonomy import FaultTag


@pytest.fixture(scope="module")
def structure():
    return build_control_structure()


class TestStructure:
    def test_validates(self, structure):
        structure.validate()

    def test_all_components_present(self, structure):
        names = {c.name for c in structure.components()}
        assert names == set(STANDARD_COMPONENTS)

    def test_autonomy_pipeline_edges(self, structure):
        graph = structure.graph
        for source, target in [
                ("sensors", "recognition"),
                ("recognition", "planner_controller"),
                ("planner_controller", "follower"),
                ("follower", "actuators"),
                ("actuators", "mechanical")]:
            assert graph.has_edge(source, target)

    def test_driver_receives_takeover_requests(self, structure):
        assert "planner_controller" in structure.feedback_sources(
            "driver")

    def test_mechanical_is_controlled_by_driver_and_actuators(
            self, structure):
        controllers = set(structure.controllers_of("mechanical"))
        assert {"driver", "actuators"} <= controllers

    def test_observation_edges_model_non_av_interaction(self, structure):
        observations = structure.edges_of_kind(EdgeKind.OBSERVATION)
        pairs = {(u, v) for u, v, _ in observations}
        assert ("non_av_driver", "sensors") in pairs
        assert ("mechanical", "non_av_driver") in pairs

    def test_unknown_component_raises(self, structure):
        with pytest.raises(StpaError):
            structure.component("flux_capacitor")


class TestControlLoops:
    def test_three_loops_defined(self):
        assert set(CONTROL_LOOPS) == {"CL-1", "CL-2", "CL-3"}

    def test_cl2_closes_in_graph(self, structure):
        assert structure.loop_exists(list(CONTROL_LOOPS["CL-2"].nodes))

    def test_cl3_closes_in_graph(self, structure):
        assert structure.loop_exists(list(CONTROL_LOOPS["CL-3"].nodes))

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
        assert overlay.component_share("recognition") == pytest.approx(
            0.5)

    def test_dominant_component(self):
        overlay = overlay_failures(self._records())
        assert overlay.dominant_component() == "recognition"

    def test_loop_counts_cover_cl1(self):
        overlay = overlay_failures(self._records())
        loops = overlay.loop_counts()
        # recognition and planner are in CL-1; compute is not.
        assert loops["CL-1"] == 3

    def test_truth_overlay(self, db):
        overlay = overlay_failures(db.disengagements, use_truth=True)
        assert overlay.total == len(db.disengagements)
        # Perception dominates (the paper's central finding).
        assert overlay.dominant_component() == "recognition"

    def test_untagged_records_unlocalized(self):
        records = [DisengagementRecord(
            manufacturer="X", month="2015-01", description="d")]
        overlay = overlay_failures(records)
        assert overlay.unlocalized == 1
