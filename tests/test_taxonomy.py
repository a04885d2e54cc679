"""Tests for the fault taxonomy (Table III)."""

import pickle
import sys

import orjson
import pytest

from repro.taxonomy import (
    ML_SUBCATEGORY,
    TAG_CATEGORY,
    TAG_DEFINITIONS,
    FailureCategory,
    FaultTag,
    MlSubcategory,
    Modality,
    category_of,
    ml_subcategory_of,
)


def test_every_tag_has_a_category():
    for tag in FaultTag:
        assert tag in TAG_CATEGORY


def test_every_tag_has_a_definition():
    for tag in FaultTag:
        assert TAG_DEFINITIONS[tag]


def test_unknown_tag_maps_to_unknown_category():
    assert category_of(FaultTag.UNKNOWN) is FailureCategory.UNKNOWN


def test_av_controller_splits_by_situation():
    # Table III: "System" when unresponsive, "ML/Design" on wrong
    # decisions.
    assert category_of(
        FaultTag.AV_CONTROLLER_UNRESPONSIVE) is FailureCategory.SYSTEM
    assert category_of(
        FaultTag.AV_CONTROLLER_DECISION) is FailureCategory.ML_DESIGN


def test_av_controller_tags_share_display_name():
    assert (FaultTag.AV_CONTROLLER_UNRESPONSIVE.display_name
            == FaultTag.AV_CONTROLLER_DECISION.display_name
            == "AV Controller")


def test_environment_is_perception_side():
    # Footnote 5: external fault sources count as perception-related.
    assert category_of(FaultTag.ENVIRONMENT) is FailureCategory.ML_DESIGN
    assert ml_subcategory_of(
        FaultTag.ENVIRONMENT) is MlSubcategory.PERCEPTION


def test_ml_subcategories_only_cover_ml_tags():
    for tag in ML_SUBCATEGORY:
        assert TAG_CATEGORY[tag] is FailureCategory.ML_DESIGN


def test_every_ml_tag_has_a_subcategory():
    for tag, category in TAG_CATEGORY.items():
        if category is FailureCategory.ML_DESIGN:
            assert ml_subcategory_of(tag) is not None


def test_non_ml_tags_have_no_subcategory():
    assert ml_subcategory_of(FaultTag.SOFTWARE) is None
    assert ml_subcategory_of(FaultTag.UNKNOWN) is None


@pytest.mark.parametrize("tag,category", [
    (FaultTag.SOFTWARE, FailureCategory.SYSTEM),
    (FaultTag.HANG_CRASH, FailureCategory.SYSTEM),
    (FaultTag.SENSOR, FailureCategory.SYSTEM),
    (FaultTag.NETWORK, FailureCategory.SYSTEM),
    (FaultTag.COMPUTER_SYSTEM, FailureCategory.SYSTEM),
    (FaultTag.PLANNER, FailureCategory.ML_DESIGN),
    (FaultTag.RECOGNITION_SYSTEM, FailureCategory.ML_DESIGN),
    (FaultTag.DESIGN_BUG, FailureCategory.ML_DESIGN),
    (FaultTag.INCORRECT_BEHAVIOR_PREDICTION, FailureCategory.ML_DESIGN),
])
def test_table3_category_assignments(tag, category):
    assert category_of(tag) is category


def test_tags_in_category_partitions_tag_set():
    # One category per tag, and every tag has one.
    assert set(TAG_CATEGORY) == set(FaultTag)
    assert all(isinstance(category, FailureCategory)
               for category in TAG_CATEGORY.values())


def test_display_name_matches_value_for_plain_tags():
    assert FaultTag.SOFTWARE.display_name == "Software"
    assert FaultTag.UNKNOWN.display_name == "Unknown-T"


def test_members_hash_by_identity_and_unpickle_to_themselves():
    # A member that crosses a pickle must come back as itself, or
    # identity hashing would split one key in two.  ``value`` is read
    # in C, and orjson encodes a member as its value.
    for enum_cls in (FailureCategory, MlSubcategory, FaultTag, Modality):
        for member in enum_cls:
            assert hash(member) == object.__hash__(member)
            assert pickle.loads(pickle.dumps(member)) is member
            assert member.value is member._value_
            assert orjson.dumps(member) == orjson.dumps(member.value)
        assert _python_calls(orjson.dumps, list(enum_cls)) == []


def _python_calls(fn, *args) -> list[str]:
    """Names of the Python functions entered while ``fn(*args)`` ran."""
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls
