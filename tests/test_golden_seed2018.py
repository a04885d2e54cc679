"""Golden regression values for the canonical seed-2018 run.

These pin measured values, not paper values, so that future edits to
the synthesizer, OCR channel, parsers, or NLP engine cannot silently
drift the reproduction; the paper's values and their tolerances are
the rows of ``repro.reporting.fidelity``.  If a change legitimately
moves these numbers, update the expectations here and re-render
EXPERIMENTS.md with ``scripts/generate_experiments_md.py``
(``tests/test_fidelity.py`` fails until the committed file matches).
"""

import hashlib

import pytest

from repro.analysis import manufacturer_dpm_summary
from repro.analysis.alertness import overall_mean_reaction_time
from repro.analysis.apm import disengagements_per_accident_overall
from repro.analysis.categories import overall_category_shares
from repro.analysis.maturity import pooled_dpm_correlation
from repro.nlp import FailureDictionary, textcache
from repro.pipeline import PipelineConfig, process_corpus
from repro.synth import generate_corpus
from repro.synth.io import write_corpus

from .conftest import FULL_SEED
from .oracles import record_loop_fingerprint

ANALYSIS = ["Mercedes-Benz", "Volkswagen", "Waymo", "Delphi", "Nissan",
            "Bosch", "GMCruise", "Tesla"]


#: Fingerprint of the default seed-2018 database, pinned from the
#: serial loop that predates the in-process executor.
FINGERPRINT = (
    "773494ce1046f9100967e8a657f66fcab35ec4061cbedbdd6d0bfcf09f2b5e2f")


#: sha256 over the files ``repro corpus --seed N`` writes (relative
#: path, a NUL, the bytes; in path order), as CI's "Corpus pin" step
#: hashes them.  It sees the truth sidecar too, which the database
#: fingerprint cannot: parsing drops truth-only fields.
CORPUS_PINS = {
    2018: "b93a651c460e39c3557c668494d6c6a7"
          "b719a892f03b8651d0cf24cf99992d50",
    911: "cf1f9a9891ef84b1e9df0bf13b353854"
         "33d8c2689adeece2e42a68a60beaf814",
}


@pytest.mark.parametrize("seed", sorted(CORPUS_PINS))
def test_written_corpus_pinned(seed, tmp_path):
    root = write_corpus(generate_corpus(seed), tmp_path)
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest.update(path.relative_to(root).as_posix().encode()
                          + b"\0" + path.read_bytes())
    assert digest.hexdigest() == CORPUS_PINS[seed]


class TestGoldenPipeline:
    def test_fingerprint(self, db):
        assert db.fingerprint() == FINGERPRINT
        assert record_loop_fingerprint(db) == FINGERPRINT

    def test_saved_file_is_the_fingerprint(self, db, tmp_path):
        # `sha256sum db.json` reads what /v1/healthz reports.
        path = tmp_path / "db.json"
        db.save(path)
        data = path.read_bytes()
        assert len(data) == 2_595_775
        assert hashlib.sha256(data).hexdigest() == FINGERPRINT
        assert (tmp_path / "db.json.sha256").read_text() == (
            f"{FINGERPRINT}  db.json\n")

    def test_record_counts(self, db):
        # Exact values for seed 2018 (the OCR channel is seeded too).
        assert len(db.disengagements) == 5324
        assert len(db.accidents) == 42

    def test_miles_recovered(self, db):
        assert db.total_miles == pytest.approx(1108099, rel=0.01)

    def test_tagging_accuracy(self, pipeline_result):
        accuracy = pipeline_result.diagnostics.tagging.tag_accuracy
        assert accuracy == pytest.approx(0.998, abs=0.004)


#: sha256 of the seed-2018 learned dictionary's ``to_json()``.
DICTIONARY_SHA256 = (
    "32cf3efecf843d600f41cf2df1dbec2b64518286297858a8666b49a5f83a329c")


class TestGoldenStage3:
    def test_dictionary_pinned(self, db):
        dictionary = FailureDictionary.build(
            [r.description for r in db.disengagements])
        assert len(dictionary) == 1554
        assert hashlib.sha256(
            dictionary.to_json().encode()).hexdigest() == DICTIONARY_SHA256

    def test_token_cache_counts(self, corpus, monkeypatch):
        # The dictionary build looks up each of the 3,345 distinct
        # narratives once (all misses); tagging looks up all 5,324
        # narratives (all hits).
        monkeypatch.setattr(textcache, "_CACHE", textcache.TokenCache())
        diagnostics = process_corpus(
            corpus, PipelineConfig(seed=FULL_SEED)).diagnostics
        assert (diagnostics.token_cache_misses,
                diagnostics.token_cache_hits) == (3345, 5324)


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
