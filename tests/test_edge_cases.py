"""Focused edge-case tests across modules.

Covers the error paths and boundary conditions the main suites don't
reach: renderer field requirements, OCR result accessors, quantile
banding, record helpers, and chart/axis boundaries.
"""

import math
from datetime import date

import pytest

from repro.errors import (
    AnalysisError,
    InsufficientDataError,
    SynthesisError,
)
from repro.parsing.records import (
    AccidentRecord,
    DisengagementRecord,
    MonthlyMileage,
    ParsedReport,
)
from repro.taxonomy import Modality


class TestRecordHelpers:
    def test_disengagement_year(self):
        record = DisengagementRecord(
            manufacturer="X", month="2015-11", description="d")
        assert record.year == 2015

    def test_accident_year_from_date_or_month(self):
        with_date = AccidentRecord(
            manufacturer="X", event_date=date(2016, 3, 4))
        assert with_date.year == 2016
        with_month = AccidentRecord(manufacturer="X", month="2015-07")
        assert with_month.year == 2015
        neither = AccidentRecord(manufacturer="X")
        assert neither.year is None

    def test_relative_speed_requires_both(self):
        record = AccidentRecord(manufacturer="X", av_speed_mph=5.0)
        assert record.relative_speed_mph is None

    def test_parsed_report_total_miles(self):
        report = ParsedReport(manufacturer="X", document_id="d")
        report.mileage.append(MonthlyMileage("X", "2015-01", 10.0))
        report.mileage.append(MonthlyMileage("X", "2015-02", 5.5))
        assert report.total_miles == pytest.approx(15.5)

    def test_mileage_year(self):
        assert MonthlyMileage("X", "2016-02", 1.0).year == 2016


class TestRendererRequirements:
    def test_missing_required_field_raises(self):
        from repro.synth.reports import _render_nissan

        record = DisengagementRecord(
            manufacturer="Nissan", month="2015-01", description="d",
            modality=Modality.MANUAL)  # no event_date/time/vehicle
        with pytest.raises(SynthesisError):
            _render_nissan(record)

    def test_generic_renderer_accepts_minimal_record(self):
        from repro.synth.reports import _render_generic

        record = DisengagementRecord(
            manufacturer="Ford", month="2016-05", description="d")
        line = _render_generic(record)
        assert "2016-05" in line and "d" in line


class TestOcrResultAccessors:
    def test_page_confidence_of_empty_page(self):
        from repro.ocr.document import OcrResult

        result = OcrResult(document_id="d")
        assert result.page_confidence(0) == 1.0
        assert result.mean_confidence == 1.0

    def test_texts_order_preserved(self):
        from repro.ocr.document import OcrLine, OcrResult

        result = OcrResult(document_id="d", lines=[
            OcrLine("a", 0.9, 0), OcrLine("b", 0.8, 0)])
        assert result.texts() == ["a", "b"]


class TestQuantileBands:
    def test_quantile_tags_split(self, db):
        from repro.analysis.dpm import dpm_quantile_tags

        bands = dpm_quantile_tags(db, "Mercedes-Benz")
        assert set(bands) == {"lower", "upper"}
        assert len(bands["upper"]) > 0

    def test_quantile_tags_needs_months(self, small_db):
        from repro.analysis.dpm import dpm_quantile_tags

        # Volkswagen in the small corpus has months, Nissan too; a
        # fabricated manufacturer has none.
        with pytest.raises(InsufficientDataError):
            dpm_quantile_tags(small_db, "Nonexistent Motors")


class TestChartBoundaries:
    def test_box_strip_rejects_inverted_axis(self):
        from repro.analysis.stats import boxplot_stats
        from repro.reporting.ascii_charts import box_strip

        box = boxplot_stats([1.0, 2.0])
        with pytest.raises(AnalysisError):
            box_strip("m", box, 5.0, 1.0)

    def test_scatter_flat_data(self):
        from repro.reporting.ascii_charts import scatter

        plot = scatter([1, 2, 3], [5, 5, 5])
        assert "n=3" in plot

    def test_bar_chart_value_format(self):
        from repro.reporting.ascii_charts import bar_chart

        chart = bar_chart({"a": 0.5}, value_format="{:.0%}")
        assert "50%" in chart


class TestFigureRenderLimits:
    def test_series_head_truncation(self):
        from repro.reporting.figures import FigureData, Series

        figure = FigureData(
            "F", "t", series=[Series("s", list(range(20)),
                                     list(range(20)))])
        text = figure.render(max_points=3)
        assert "..." in text

    def test_empty_series_renders(self):
        from repro.reporting.figures import FigureData, Series

        figure = FigureData("F", "t", series=[Series("s", [], [])])
        assert "[series]" in figure.render()


class TestUnitsBoundaries:
    def test_parse_time_of_day_compact_am_pm(self):
        from repro.units import parse_time_of_day

        assert parse_time_of_day("9AM") == (9, 0, 0)
        assert parse_time_of_day("12PM") == (12, 0, 0)

    def test_duration_minutes_word(self):
        from repro.units import parse_duration_seconds

        assert parse_duration_seconds("3 minutes") == 180.0

    def test_month_key_boundaries(self):
        from repro.units import month_key

        assert month_key(date(2014, 1, 31)) == "2014-01"
        assert month_key(date(2016, 12, 1)) == "2016-12"


class TestFallbackQueueAccounting:
    def test_threshold_edge(self):
        from repro.ocr.document import OcrLine, OcrResult
        from repro.ocr.fallback import (
            CONFIDENCE_THRESHOLD,
            ManualTranscriptionQueue,
        )

        result = OcrResult(document_id="d", lines=[
            OcrLine("x", CONFIDENCE_THRESHOLD, 0)])
        # Exactly at threshold: no fallback (strict less-than).
        assert not ManualTranscriptionQueue.needs_fallback(
            result.page_confidence(0))
        assert ManualTranscriptionQueue.needs_fallback(
            math.nextafter(CONFIDENCE_THRESHOLD, 0.0))


class TestStoreEdgeCases:
    def test_empty_database(self):
        from repro.pipeline.store import FailureDatabase

        db = FailureDatabase()
        assert db.manufacturers() == []
        assert db.total_miles == 0.0
        assert db.reaction_times() == []
        assert db.monthly_miles("X") == {}

    def test_vehicleless_records_excluded_from_vehicle_views(self):
        from repro.pipeline.store import FailureDatabase

        db = FailureDatabase(disengagements=[DisengagementRecord(
            manufacturer="X", month="2015-01", description="d")])
        assert db.vehicle_disengagements("X") == {}
