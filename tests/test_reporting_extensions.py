"""Tests for ASCII charts and the study report."""

import pytest

from repro.analysis.stats import boxplot_stats
from repro.errors import AnalysisError
from repro.reporting.ascii_charts import (
    bar_chart,
    box_panel,
    box_strip,
    scatter,
)
from repro.reporting.summary import render_study_report


class TestBarChart:
    def test_basic_render(self):
        chart = bar_chart({"a": 1.0, "bb": 2.0})
        lines = chart.splitlines()
        assert len(lines) == 2
        assert lines[1].count("█") > lines[0].count("█")

    def test_zero_values(self):
        chart = bar_chart({"a": 0.0, "b": 0.0})
        assert "█" not in chart

    def test_empty_raises(self):
        with pytest.raises(AnalysisError):
            bar_chart({})

    def test_narrow_width_rejected(self):
        with pytest.raises(AnalysisError):
            bar_chart({"a": 1.0}, width=2)


class TestBoxPanel:
    def test_strip_markers(self):
        box = boxplot_stats([1, 2, 3, 4, 5])
        strip = box_strip("m", box, 0.0, 6.0)
        assert "[" in strip and "]" in strip and "|" in strip

    def test_panel_renders_all_rows(self):
        boxes = {"a": boxplot_stats([1, 2, 3]),
                 "b": boxplot_stats([10, 20, 30])}
        panel = box_panel(boxes)
        assert len(panel.splitlines()) == 3  # 2 rows + axis

    def test_log_panel(self):
        boxes = {"x": boxplot_stats([0.001, 0.01, 0.1]),
                 "y": boxplot_stats([1.0, 10.0, 100.0])}
        panel = box_panel(boxes, log=True)
        assert "x" in panel and "y" in panel

    def test_log_rejects_nonpositive(self):
        with pytest.raises(AnalysisError):
            box_strip("m", boxplot_stats([0.0, 1.0]), 0.0, 1.0,
                      log=True)

    def test_empty_panel_raises(self):
        with pytest.raises(AnalysisError):
            box_panel({})


class TestScatter:
    def test_frame_and_points(self):
        plot = scatter([1, 2, 3], [3, 2, 1], width=20, height=6)
        lines = plot.splitlines()
        assert lines[0].startswith("+")
        assert any("•" in line for line in lines)
        assert "n=3" in lines[-1]

    def test_loglog_filters_nonpositive(self):
        plot = scatter([1, 10, -5], [1, 100, 7], loglog=True)
        assert "n=2" in plot

    def test_too_few_points(self):
        with pytest.raises(AnalysisError):
            scatter([1], [1])

    def test_mismatched_lengths(self):
        with pytest.raises(AnalysisError):
            scatter([1, 2], [1])


class TestStudyReport:
    def test_full_report_renders(self, db):
        report = render_study_report(db)
        for token in ("# AV Failure Study Report", "## Headlines",
                      "Table VI", "disengagements per mile",
                      "## Burn-in", "## Driver alertness"):
            assert token.lower() in report.lower(), token

    def test_report_without_charts(self, db):
        report = render_study_report(db, include_charts=False)
        assert "•" not in report

    def test_report_over_partial_database(self, small_db):
        report = render_study_report(small_db)
        assert "Nissan" in report

