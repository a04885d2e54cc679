"""The run's tagging report scores the tags its database holds.

Stage III stores one tag per record; ``diagnostics.tagging`` scores
those stored tags instead of tagging the corpus a second time.  When
the expanded dictionary build fails the two differ (the run falls
back to the seed dictionary, so some records store ``Unknown-T``),
and the report must describe the database.  On a clean run the
stored tags are the tagger's, so the report equals a fresh re-tag,
which serves as the oracle.
"""

from __future__ import annotations

import pytest

from repro.errors import DegradedModeWarning
from repro.nlp.dictionary import FailureDictionary
from repro.nlp.evaluation import TaggingReport, evaluate_tagger
from repro.nlp.tagger import VotingTagger
from repro.parsing.records import DisengagementRecord
from repro.pipeline.config import PipelineConfig
from repro.pipeline.runner import process_corpus
from repro.synth.dataset import generate_corpus
from repro.taxonomy import FaultTag, category_of

from .faults import inject

SEED = 5
NISSAN_BOSCH = ["Nissan", "Bosch"]

#: The seed-5 Nissan run without OCR (``test_resilience`` pins its
#: fingerprint).
SMALL = dict(seed=SEED, manufacturers=["Nissan"], ocr_enabled=False,
             dictionary_mode="seed")


def _stored_report(records: list[DisengagementRecord]) -> TaggingReport:
    """A report over the stored ``record.tag`` values, built by hand."""
    report = TaggingReport()
    for record in records:
        truth = record.truth_tag
        if truth is None:
            continue
        report.total += 1
        report.per_tag_truth[truth] += 1
        report.per_tag_predicted[record.tag] += 1
        report.confusion[(truth, record.tag)] += 1
        if record.tag == truth:
            report.correct_tag += 1
            report.per_tag_hits[truth] += 1
        if category_of(record.tag) is category_of(truth):
            report.correct_category += 1
    return report


def _retag_report(result) -> TaggingReport:
    """The old report: tag every record again with the run's dictionary."""
    records = result.database.disengagements
    dictionary = (FailureDictionary.from_seeds()
                  if result.config.dictionary_mode == "seed"
                  else FailureDictionary.build(
                      [r.description for r in records]))
    return evaluate_tagger(VotingTagger(dictionary), records)


@pytest.fixture(scope="module")
def nissan_bosch():
    return generate_corpus(SEED, NISSAN_BOSCH)


class TestChaosReport:
    def test_report_scores_the_fallback_tags(self, nissan_bosch):
        # A failed expanded-dictionary build falls back to the seed
        # dictionary, which tags 18 of these narratives Unknown-T.
        config = PipelineConfig(
            seed=SEED, manufacturers=NISSAN_BOSCH, ocr_enabled=False,
            failure_policy="quarantine")
        with pytest.warns(DegradedModeWarning), \
                inject("dictionary", 1.0, SEED):
            result = process_corpus(nissan_bosch, config)
        records = result.database.disengagements
        unknown = sum(r.tag is FaultTag.UNKNOWN for r in records)
        assert unknown == 18
        report = result.diagnostics.tagging
        assert report == _stored_report(records)
        assert (report.total, report.correct_tag) == (2201, 2183)
        # The re-tag uses the expanded dictionary the run fell back
        # from, and would claim every hit.
        assert _retag_report(result).correct_tag == 2201


class TestCleanReport:
    def test_small_run_equals_retag(self):
        corpus = generate_corpus(SEED, SMALL["manufacturers"])
        result = process_corpus(corpus, PipelineConfig(**SMALL))
        report = result.diagnostics.tagging
        assert report.total > 0
        assert report == _retag_report(result)
        assert report == _stored_report(result.database.disengagements)

    def test_nissan_bosch_run_equals_retag(self, nissan_bosch):
        config = PipelineConfig(seed=SEED, manufacturers=NISSAN_BOSCH)
        result = process_corpus(nissan_bosch, config)
        report = result.diagnostics.tagging
        assert report.total == len(result.database.disengagements)
        assert report == _retag_report(result)


class TestEvaluateStoredTags:
    @staticmethod
    def _record(text: str, tag: FaultTag | None,
                truth: FaultTag | None) -> DisengagementRecord:
        return DisengagementRecord(
            manufacturer="X", month="2018-01", description=text,
            tag=tag, truth_tag=truth)

    def test_none_tagger_scores_record_tags(self):
        records = [
            self._record("sun glare ahead", FaultTag.ENVIRONMENT,
                         FaultTag.ENVIRONMENT),
            # The narrative says sensor, the stored tag wins.
            self._record("lidar dropout", FaultTag.UNKNOWN,
                         FaultTag.SENSOR),
            self._record("no truth here", FaultTag.PLANNER, None),
        ]
        report = evaluate_tagger(None, records)
        assert report.total == 2
        assert report.correct_tag == 1
        assert report.confusion[(FaultTag.SENSOR, FaultTag.UNKNOWN)] == 1
        assert report == _stored_report(records)

    def test_tagger_still_tags_afresh(self):
        records = [self._record("lidar dropout", FaultTag.UNKNOWN,
                                FaultTag.SENSOR)]
        tagger = VotingTagger(FailureDictionary.from_seeds())
        assert evaluate_tagger(tagger, records).correct_tag == 1
