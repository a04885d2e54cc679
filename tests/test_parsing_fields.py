"""Tests for OCR-tolerant field coercions."""

from datetime import date

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import FieldCoercionError
from repro.parsing import fields
from repro.taxonomy import Modality

from .oracles import split_csv_reference


class TestNumericRepair:
    def test_letter_digit_confusions(self):
        assert fields.repair_numeric_text("O.8") == "0.8"
        assert fields.repair_numeric_text("l5") == "15"
        assert fields.repair_numeric_text("2O15") == "2015"

    def test_coerce_number_with_damage(self):
        assert fields.coerce_number("O.85") == pytest.approx(0.85)
        assert fields.coerce_number("1,1l6") == pytest.approx(1116)

    def test_coerce_number_failure(self):
        with pytest.raises(FieldCoercionError):
            fields.coerce_number("???")


class TestDateTimeCoercion:
    def test_damaged_date(self):
        assert fields.coerce_date("O3/14/2O15") == date(2015, 3, 14)

    def test_damaged_time(self):
        assert fields.coerce_time("l8:24:O3") == (18, 24, 3)


class TestMonthAbbr:
    @pytest.mark.parametrize("text,expected", [
        ("May-16", "2016-05"),
        ("Dec-15", "2015-12"),
        ("Sep-14", "2014-09"),
        ("5ep-14", "2014-09"),   # S -> 5 confusion
        ("Dee-15", "2015-12"),   # c -> e confusion
        ("ug-15", "2015-08"),    # dropped leading letter
        ("May-l6", "2016-05"),   # 1 -> l in the year
    ])
    def test_damaged_months(self, text, expected):
        assert fields.coerce_month_abbr(text) == expected

    def test_unknown_month_raises(self):
        with pytest.raises(FieldCoercionError):
            fields.coerce_month_abbr("Xyz-16")


class TestReactionTime:
    def test_normal(self):
        assert fields.coerce_reaction_time("0.9 s") == pytest.approx(0.9)

    def test_damaged(self):
        assert fields.coerce_reaction_time("O.9 s") == pytest.approx(0.9)

    def test_empty_is_none(self):
        assert fields.coerce_reaction_time("") is None
        assert fields.coerce_reaction_time("-") is None
        assert fields.coerce_reaction_time("n/a") is None


class TestEnumishFields:
    def test_modalities(self):
        assert fields.coerce_modality("Auto") is Modality.AUTOMATIC
        assert fields.coerce_modality("manual") is Modality.MANUAL
        assert fields.coerce_modality("Driver") is Modality.MANUAL
        assert fields.coerce_modality("planned test") is Modality.PLANNED
        assert fields.coerce_modality("???") is None

    def test_road_types(self):
        assert fields.coerce_road_type("Highway") == "highway"
        assert fields.coerce_road_type("city street") == "city street"
        assert fields.coerce_road_type("urban street") == "city street"
        assert fields.coerce_road_type("unknown") is None

    def test_weather(self):
        assert fields.coerce_weather("Sunny/Dry") == "Sunny/Dry"
        assert fields.coerce_weather("unknown") is None
        assert fields.coerce_weather("") is None


class TestSplitters:
    def test_em_dash_split(self):
        parts = fields.split_fields("a — b — c", "—")
        assert parts == ["a", "b", "c"]

    def test_em_dash_split_tolerates_hyphen(self):
        parts = fields.split_fields("a - b — c", "—")
        assert parts == ["a", "b", "c"]

    def test_pipe_split(self):
        assert fields.split_fields("a | b | c", "|") == ["a", "b", "c"]

    def test_csv_with_quotes(self):
        parts = fields.split_csv('1/1/16,"a, quoted, field",x')
        assert parts == ["1/1/16", "a, quoted, field", "x"]

    def test_csv_plain(self):
        assert fields.split_csv("a,b,c") == ["a", "b", "c"]

    @given(line=st.one_of(st.text(alphabet='ab ,"\t', max_size=30),
                          st.text()))
    @example(line="")
    @example(line='"')
    @example(line='a,"b,"c,d",e')
    @settings(max_examples=500, deadline=None)
    def test_csv_equals_character_reference(self, line):
        for _ in range(2):  # cold, then from the one-row memo
            assert fields.split_csv(line) == split_csv_reference(line)

    def test_csv_memo_hands_out_fresh_lists(self):
        fields.split_csv("a,b").append("c")
        assert fields.split_csv("a,b") == ["a", "b"]
