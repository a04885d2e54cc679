"""Tests for the database linter."""

from datetime import date

from repro.parsing.records import (
    AccidentRecord,
    DisengagementRecord,
    MonthlyMileage,
)
from repro.pipeline.lint import Severity, errors, lint_database
from repro.pipeline.store import FailureDatabase
from repro.taxonomy import FailureCategory, FaultTag


class TestLint:
    def test_clean_pipeline_output_has_no_errors(self, db):
        findings = lint_database(db)
        assert errors(findings) == [], [str(f) for f in errors(
            findings)][:5]

    def test_vw_outlier_is_flagged_as_warning(self, db):
        findings = lint_database(db)
        warnings = [f for f in findings
                    if f.check == "implausible-reaction-time"]
        assert warnings  # the ~4 h Volkswagen record

    def test_month_outside_window(self):
        db = FailureDatabase(disengagements=[DisengagementRecord(
            manufacturer="X", month="2020-01", description="d")])
        findings = lint_database(db)
        assert any(f.check == "month-coverage"
                   for f in errors(findings))

    def test_date_month_mismatch(self):
        db = FailureDatabase(disengagements=[DisengagementRecord(
            manufacturer="X", month="2015-01",
            event_date=date(2015, 2, 3), description="d")])
        assert any(f.check == "date-month-mismatch"
                   for f in errors(lint_database(db)))

    def test_tag_category_mismatch(self):
        db = FailureDatabase(disengagements=[DisengagementRecord(
            manufacturer="X", month="2015-01", description="d",
            tag=FaultTag.SOFTWARE,
            category=FailureCategory.ML_DESIGN)])
        assert any(f.check == "tag-category-mismatch"
                   for f in errors(lint_database(db)))

    def test_events_without_miles(self):
        db = FailureDatabase(disengagements=[DisengagementRecord(
            manufacturer="X", month="2015-01", description="d")])
        assert any(f.check == "events-without-miles"
                   for f in errors(lint_database(db)))

    def test_redaction_leak(self):
        db = FailureDatabase(accidents=[AccidentRecord(
            manufacturer="X", month="2015-01", redacted=True,
            vehicle_id="LEAKED")])
        assert any(f.check == "redaction-leak"
                   for f in errors(lint_database(db)))

    def test_untagged_warning(self):
        db = FailureDatabase(
            disengagements=[DisengagementRecord(
                manufacturer="X", month="2015-01", description="d")],
            mileage=[MonthlyMileage("X", "2015-01", 10.0)])
        findings = lint_database(db)
        assert any(f.check == "untagged-records"
                   and f.severity is Severity.WARNING
                   for f in findings)
