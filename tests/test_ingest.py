"""Tests for incremental ingestion.

The headline contract: an incrementally built database is
**byte-identical** to a full from-scratch rebuild of the same combined
corpus — across document additions, changes, removals, OCR on or off,
both dictionary modes, lost state files, and chaos kill points at
every declared swap stage.  Journal surgery leaves every surviving
line byte-identical, and an ingest parses each journal line once.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import replace

import orjson
import pytest

from repro.pipeline.chaos import SWAP_POINTS, ServingChaos, SimulatedCrash
from repro.pipeline.checkpoint import journal_line_unit
from repro.pipeline.config import PipelineConfig
from repro.pipeline.ingest import INGEST_STATE, document_digest, ingest_corpus
from repro.pipeline.runner import process_corpus
from repro.query.engine import Query
from repro.query.snapshot import SnapshotManager
from repro.synth.dataset import SyntheticCorpus

SEED = 7


def _subset(corpus, count):
    return SyntheticCorpus(seed=corpus.seed,
                           documents=corpus.documents[:count])


def _config(tmp_path, **overrides):
    defaults = dict(seed=SEED, ocr_enabled=False,
                    dictionary_mode="seed",
                    checkpoint_dir=tmp_path / "ckpt")
    defaults.update(overrides)
    return PipelineConfig(**defaults)


def _scratch_fingerprint(corpus, config):
    """Fingerprint of a full from-scratch rebuild (no checkpointing)."""
    clean = replace(config, checkpoint_dir=None, resume=False)
    return process_corpus(corpus, clean).database.fingerprint()


class TestDocumentDigest:
    def test_stable(self, small_corpus):
        doc = small_corpus.documents[0]
        assert document_digest(doc) == document_digest(doc)

    def test_line_change_changes_digest(self, small_corpus):
        doc = small_corpus.documents[0]
        altered = replace(doc, lines=doc.lines + ["EXTRA LINE"])
        assert document_digest(altered) != document_digest(doc)

    def test_truth_only_change_changes_digest(self, small_corpus):
        # attach_truth copies truth tags into parsed records, so a
        # truth-only edit must invalidate the journal entry even
        # though the rendered lines are identical.
        doc = next(d for d in small_corpus.documents
                   if d.truth_disengagements)
        record = doc.truth_disengagements[0]
        altered = replace(doc, truth_disengagements=(
            [replace(record,
                     description=record.description + " (amended)")]
            + list(doc.truth_disengagements[1:])))
        assert altered.lines == doc.lines
        assert document_digest(altered) != document_digest(doc)


class TestIngestRequirements:
    def test_requires_checkpoint_dir(self, small_corpus):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            ingest_corpus(small_corpus, PipelineConfig(seed=SEED))


class TestIngestParity:
    def test_first_ingest_is_full_rebuild(self, small_corpus,
                                          tmp_path):
        config = _config(tmp_path)
        base = _subset(small_corpus, 2)
        outcome = ingest_corpus(base, config)
        assert outcome.report.full_rebuild is True
        assert "first ingest" in outcome.report.reason
        assert outcome.report.new_documents == 2
        assert (outcome.database.fingerprint()
                == _scratch_fingerprint(base, config))

    def test_delta_ingest_matches_full_rebuild(self, small_corpus,
                                               tmp_path):
        config = _config(tmp_path)
        base = _subset(small_corpus, 2)
        ingest_corpus(base, config)
        outcome = ingest_corpus(small_corpus, config)
        report = outcome.report
        assert report.full_rebuild is False
        assert report.new_documents == len(small_corpus.documents) - 2
        assert report.reused_documents == 2
        assert report.changed_documents == 0
        assert report.tags_reused is True
        assert (outcome.database.fingerprint()
                == _scratch_fingerprint(small_corpus, config))

    def test_byte_identical_on_disk(self, small_corpus, tmp_path):
        config = _config(tmp_path)
        ingest_corpus(_subset(small_corpus, 2), config)
        outcome = ingest_corpus(small_corpus, config)
        incremental = tmp_path / "incremental.json"
        scratch = tmp_path / "scratch.json"
        outcome.database.save(incremental)
        clean = replace(config, checkpoint_dir=None)
        process_corpus(small_corpus, clean).database.save(scratch)
        assert (incremental.read_text(encoding="utf-8")
                == scratch.read_text(encoding="utf-8"))

    def test_changed_document_recomputed(self, small_corpus,
                                         tmp_path):
        config = _config(tmp_path)
        ingest_corpus(small_corpus, config)
        documents = list(small_corpus.documents)
        documents[0] = replace(
            documents[0],
            lines=documents[0].lines + ["TRAILING NOTE"])
        mutated = SyntheticCorpus(seed=SEED, documents=documents)
        outcome = ingest_corpus(mutated, config)
        report = outcome.report
        assert report.changed_documents == 1
        assert report.reused_documents == len(documents) - 1
        assert (outcome.database.fingerprint()
                == _scratch_fingerprint(mutated, config))

    def test_removed_document_dropped(self, small_corpus, tmp_path):
        config = _config(tmp_path)
        ingest_corpus(small_corpus, config)
        base = _subset(small_corpus, 2)
        outcome = ingest_corpus(base, config)
        assert outcome.report.removed_documents > 0
        assert (outcome.database.fingerprint()
                == _scratch_fingerprint(base, config))

    def test_parity_with_ocr_enabled(self, small_corpus, tmp_path):
        config = _config(tmp_path, ocr_enabled=True)
        ingest_corpus(_subset(small_corpus, 2), config)
        outcome = ingest_corpus(small_corpus, config)
        assert outcome.report.full_rebuild is False
        assert (outcome.database.fingerprint()
                == _scratch_fingerprint(small_corpus, config))

    def test_parity_with_expanded_dictionary(self, small_corpus,
                                             tmp_path):
        config = _config(tmp_path, dictionary_mode="expanded")
        ingest_corpus(_subset(small_corpus, 2), config)
        outcome = ingest_corpus(small_corpus, config)
        report = outcome.report
        assert report.tags_reused is False
        assert any("expanded" in note for note in report.notes)
        assert (outcome.database.fingerprint()
                == _scratch_fingerprint(small_corpus, config))

    def test_noop_reingest_reuses_everything(self, small_corpus,
                                             tmp_path):
        config = _config(tmp_path)
        first = ingest_corpus(small_corpus, config)
        again = ingest_corpus(small_corpus, config)
        report = again.report
        assert report.full_rebuild is False
        assert report.new_documents == 0
        assert report.changed_documents == 0
        assert report.reused_documents == len(small_corpus.documents)
        assert (again.database.fingerprint()
                == first.database.fingerprint())


JOURNALS = ("documents", "accidents", "tags")


def _journal_lines(directory):
    """Every journal's raw lines, by journal name."""
    return {name: (directory / f"{name}.jsonl").read_bytes()
            .splitlines(keepends=True) for name in JOURNALS}


class TestJournalSurgery:
    def test_pure_add_leaves_journals_in_place(self, small_corpus,
                                               tmp_path):
        config = _config(tmp_path)
        ingest_corpus(_subset(small_corpus, 3), config)  # one accident
        paths = [tmp_path / "ckpt" / f"{name}.jsonl" for name in JOURNALS]
        before = [(path.stat().st_ino, path.read_bytes())
                  for path in paths]
        ingest_corpus(small_corpus, config)
        for path, (inode, data) in zip(paths, before):
            # Never rewritten: the resume only appended the new units.
            assert path.stat().st_ino == inode, path.name
            assert path.read_bytes().startswith(data), path.name

    def test_removal_keeps_surviving_lines_byte_identical(
            self, small_corpus, tmp_path):
        config = _config(tmp_path)
        ingest_corpus(small_corpus, config)
        before = _journal_lines(tmp_path / "ckpt")
        # Drop one disengagement report and the accident report.
        base = SyntheticCorpus(seed=SEED, documents=[
            small_corpus.documents[1], small_corpus.documents[3]])
        kept = {document.document_id for document in base.documents}
        outcome = ingest_corpus(base, config)
        assert outcome.report.removed_documents > 0
        after = _journal_lines(tmp_path / "ckpt")
        for name in JOURNALS:
            survivors = [
                line for line in before[name]
                if journal_line_unit(line).rsplit(":", 1)[0] in kept
                or journal_line_unit(line) in kept]
            assert after[name] == survivors, name
            assert len(survivors) < len(before[name]), name

    def test_each_journal_line_parsed_once(self, small_corpus, tmp_path,
                                           monkeypatch):
        config = _config(tmp_path)
        ingest_corpus(_subset(small_corpus, 3), config)
        lines = [line.strip() for group in
                 _journal_lines(tmp_path / "ckpt").values()
                 for line in group]
        parsed = Counter()
        for module in (orjson, json):
            def spy(data, *args, _loads=module.loads, **kwargs):
                text = data.encode() if isinstance(data, str) else data
                parsed[bytes(text).strip()] += 1
                return _loads(data, *args, **kwargs)

            monkeypatch.setattr(module, "loads", spy)
        outcome = ingest_corpus(small_corpus, config)
        monkeypatch.undo()
        assert outcome.report.reused_documents == 3
        assert outcome.report.tags_reused
        assert lines
        assert [parsed[line] for line in lines] == [1] * len(lines)


class TestIngestResilience:
    def test_config_change_forces_full_rebuild(self, small_corpus,
                                               tmp_path):
        ingest_corpus(_subset(small_corpus, 2), _config(tmp_path))
        changed = _config(tmp_path, dictionary_mode="expanded")
        outcome = ingest_corpus(small_corpus, changed)
        assert outcome.report.full_rebuild is True
        assert (outcome.database.fingerprint()
                == _scratch_fingerprint(small_corpus, changed))

    def test_lost_state_file_still_correct(self, small_corpus,
                                           tmp_path):
        config = _config(tmp_path)
        ingest_corpus(_subset(small_corpus, 2), config)
        (tmp_path / "ckpt" / INGEST_STATE).unlink()
        outcome = ingest_corpus(small_corpus, config)
        # Every document counts as new (no digests to compare), but
        # the journals are still trusted by id — exactly --resume
        # semantics — and parity holds.
        assert outcome.report.full_rebuild is False
        assert (outcome.report.new_documents
                == len(small_corpus.documents))
        assert (outcome.database.fingerprint()
                == _scratch_fingerprint(small_corpus, config))

    def test_corrupt_state_file_still_correct(self, small_corpus,
                                              tmp_path):
        config = _config(tmp_path)
        ingest_corpus(_subset(small_corpus, 2), config)
        state = tmp_path / "ckpt" / INGEST_STATE
        state.write_text("{broken", encoding="utf-8")
        outcome = ingest_corpus(small_corpus, config)
        assert (outcome.database.fingerprint()
                == _scratch_fingerprint(small_corpus, config))


class TestIngestUnderSwapChaos:
    """Acceptance: parity holds under chaos kill points at every
    declared swap stage — the crash hits the *publish* of the newly
    ingested database, never its construction, so a retry serves
    exactly the parity-guaranteed result."""

    @pytest.mark.parametrize("point", SWAP_POINTS)
    def test_crash_then_retry_serves_parity_result(
            self, small_corpus, tmp_path, point):
        config = _config(tmp_path)
        base = ingest_corpus(_subset(small_corpus, 2), config)
        outcome = ingest_corpus(small_corpus, config)
        candidate = tmp_path / "candidate.json"
        outcome.database.save(candidate)

        # Serve the base generation; the grown corpus is the candidate.
        chaos = ServingChaos(crash_at=point)
        manager = SnapshotManager(base.database, chaos=chaos)
        with pytest.raises(SimulatedCrash):
            manager.load(candidate)
        assert manager.generation == 1  # old snapshot untouched
        manager.engine.execute(Query(metric="count"))

        chaos.crash_at = None
        assert manager.load(candidate) is True
        scratch = _scratch_fingerprint(small_corpus, config)
        assert outcome.database.fingerprint() == scratch
        assert manager.fingerprint == scratch
