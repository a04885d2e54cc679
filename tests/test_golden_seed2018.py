"""Golden regression values for the canonical seed-2018 run.

These pin the exact headline outputs of the canonical corpus so that
future edits to the synthesizer, OCR channel, parsers, or NLP engine
cannot silently drift the reproduction.  If a change legitimately
moves these numbers, re-run ``scripts/generate_experiments_md.py`` and
update both the EXPERIMENTS.md narrative and the expectations here.
"""

import pytest

from repro.analysis import manufacturer_dpm_summary
from repro.analysis.alertness import overall_mean_reaction_time
from repro.analysis.apm import disengagements_per_accident_overall
from repro.analysis.categories import overall_category_shares
from repro.analysis.maturity import pooled_dpm_correlation

ANALYSIS = ["Mercedes-Benz", "Volkswagen", "Waymo", "Delphi", "Nissan",
            "Bosch", "GMCruise", "Tesla"]


#: Fingerprint of the default seed-2018 database, pinned from the
#: serial loop that predates the in-process executor.
FINGERPRINT = (
    "773494ce1046f9100967e8a657f66fcab35ec4061cbedbdd6d0bfcf09f2b5e2f")


class TestGoldenPipeline:
    def test_fingerprint(self, db):
        assert db.fingerprint() == FINGERPRINT

    def test_record_counts(self, db):
        # Exact values for seed 2018 (the OCR channel is seeded too).
        assert len(db.disengagements) == 5324
        assert len(db.accidents) == 42

    def test_miles_recovered(self, db):
        assert db.total_miles == pytest.approx(1108099, rel=0.01)

    def test_tagging_accuracy(self, pipeline_result):
        accuracy = pipeline_result.diagnostics.tagging.tag_accuracy
        assert accuracy == pytest.approx(0.998, abs=0.004)


class TestGoldenHeadlines:
    def test_category_shares(self, db):
        shares = overall_category_shares(db)
        assert shares["ml_design"] == pytest.approx(0.649, abs=0.01)
        assert shares["perception"] == pytest.approx(0.437, abs=0.01)
        assert shares["planner"] == pytest.approx(0.212, abs=0.01)
        assert shares["system"] == pytest.approx(0.343, abs=0.01)

    def test_pooled_correlation(self, db):
        result = pooled_dpm_correlation(db, ANALYSIS)
        assert result.r == pytest.approx(-0.848, abs=0.02)

    def test_mean_reaction_time(self, db):
        assert overall_mean_reaction_time(db) == pytest.approx(
            0.835, abs=0.02)

    def test_dpa(self, db):
        assert disengagements_per_accident_overall(db) == \
            pytest.approx(126.8, abs=1.0)

    def test_median_dpm_per_manufacturer(self, db):
        golden = {
            "Mercedes-Benz": 0.559,
            "Volkswagen": 0.0147,
            "Waymo": 3.95e-4,
            "Delphi": 0.0267,
            "Nissan": 0.0471,
            "Bosch": 1.068,
            "GMCruise": 0.168,
            "Tesla": 0.376,
        }
        summaries = manufacturer_dpm_summary(db, ANALYSIS)
        for name, expected in golden.items():
            assert summaries[name].median_dpm == pytest.approx(
                expected, rel=0.05), name
