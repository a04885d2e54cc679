"""Tests for unit and quantity coercions."""

from datetime import date

import pytest

from repro.errors import FieldCoercionError
from repro import units


class TestParseDuration:
    def test_seconds(self):
        assert units.parse_duration_seconds("0.8 sec") == pytest.approx(
            0.8)

    def test_bare_s(self):
        assert units.parse_duration_seconds("1.2 s") == pytest.approx(1.2)

    def test_minutes(self):
        assert units.parse_duration_seconds("2 min") == 120.0

    def test_hours(self):
        assert units.parse_duration_seconds("4 hr") == 14400.0

    def test_milliseconds(self):
        assert units.parse_duration_seconds("500 ms") == pytest.approx(
            0.5)

    def test_range_takes_upper_bound(self):
        # Paper convention: ranges resolve to their upper bound.
        assert units.parse_duration_seconds("0.5-1.0 s") == pytest.approx(
            1.0)

    def test_less_than_phrase(self):
        assert units.parse_duration_seconds(
            "less than 1 second") == pytest.approx(1.0)

    def test_empty_raises(self):
        with pytest.raises(FieldCoercionError):
            units.parse_duration_seconds("   ")

    def test_no_number_raises(self):
        with pytest.raises(FieldCoercionError):
            units.parse_duration_seconds("soon")


class TestParseDate:
    @pytest.mark.parametrize("text,expected", [
        ("1/4/16", date(2016, 1, 4)),
        ("11/12/14", date(2014, 11, 12)),
        ("03/14/2015", date(2015, 3, 14)),
        ("2016-08-14", date(2016, 8, 14)),
        ("May-16", date(2016, 5, 1)),
    ])
    def test_formats(self, text, expected):
        assert units.parse_date(text) == expected

    def test_unknown_format_raises(self):
        with pytest.raises(FieldCoercionError):
            units.parse_date("14th of March")


class TestParseTimeOfDay:
    @pytest.mark.parametrize("text,expected", [
        ("1:25 PM", (13, 25, 0)),
        ("18:24:03", (18, 24, 3)),
        ("09:16", (9, 16, 0)),
        ("12:00 AM", (0, 0, 0)),
    ])
    def test_formats(self, text, expected):
        assert units.parse_time_of_day(text) == expected

    def test_bad_time_raises(self):
        with pytest.raises(FieldCoercionError):
            units.parse_time_of_day("around noon")


class TestMonths:
    def test_month_key(self):
        assert units.month_key(date(2016, 5, 7)) == "2016-05"

    def test_months_between_inclusive(self):
        keys = units.months_between(date(2014, 11, 1), date(2015, 2, 28))
        assert keys == ["2014-11", "2014-12", "2015-01", "2015-02"]

    def test_months_between_single_month(self):
        assert units.months_between(
            date(2015, 6, 1), date(2015, 6, 30)) == ["2015-06"]

    def test_months_between_reversed_raises(self):
        with pytest.raises(FieldCoercionError):
            units.months_between(date(2016, 1, 1), date(2015, 1, 1))
