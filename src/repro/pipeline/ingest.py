"""Incremental ingestion: process only what changed, prove parity.

The CA DMV corpus is a living stream — a new report drop adds (or
amends) a handful of documents among thousands of already-processed
ones.  A full rebuild re-runs the expensive per-document Stage II
work (OCR channel, parsing) on every document; this module re-runs it
**only on the delta** and still produces a database *byte-identical*
to a full from-scratch rebuild of the combined corpus.

How: checkpoint-journal surgery plus an ordinary resume run.

1. Detect the delta.  Each raw document's content digest (lines +
   ground truth, see :func:`document_digest`) is remembered in an
   ``ingest.json`` state file inside the checkpoint directory.  A
   document whose digest changed — or that has no journal entry — is
   *stale*; everything else is *reusable*.
2. Surgery.  Stale (and removed) documents' entries are dropped from
   the ``documents``/``accidents`` journals; the corpus-dependent
   stage artifacts (``normalized``, ``dictionary``) are always
   deleted — they are functions of the whole corpus, never of one
   document.  The ``tags`` journal is reusable only under
   ``dictionary_mode="seed"`` (the seed dictionary is corpus
   independent); under ``"expanded"`` it is deleted wholesale, since
   a grown corpus can shift the dictionary and with it any tag.
3. Resume.  :func:`~repro.pipeline.runner.process_corpus` runs over
   the **combined** corpus with ``resume=True``: reusable units are
   restored from their journal entries, stale/new units are computed
   live, and the corpus-wide stages (normalize, filter, dictionary,
   tags under ``expanded``) recompute over everything.

Why that is byte-identical to a full rebuild: every per-document
Stage II outcome is a deterministic function of (document content,
config, seed) — the OCR channel draws from
``child_generator(seed, f"ocr:{document_id}")``, chaos injection is
keyed by ``(stage, unit_id)`` — so a restored journal entry is
exactly what recomputing the unchanged document would have produced.
Anything that is *not* such a function is never reused.  The config
fingerprint in the checkpoint manifest enforces the "same config,
same seed" half: a mismatch makes
:class:`~repro.pipeline.checkpoint.CheckpointStore` discard the
directory and the ingest degrades to a full rebuild, correct by
construction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

from ..synth.dataset import SyntheticCorpus
from ..synth.reports import RawDocument
from .checkpoint import (
    CheckpointStore,
    atomic_write_text,
    canonical_json,
    config_fingerprint,
    journal_line,
    read_journal,
    sha256_text,
)
from .config import PipelineConfig
from .runner import PipelineResult, process_corpus

#: Name of the ingest state file inside the checkpoint directory.
INGEST_STATE = "ingest.json"

#: Format version of the state file (mismatch = ignore, full delta).
INGEST_FORMAT = 1


#: Types :func:`_plain` returns as they are.
_PASS_THROUGH = frozenset({str, int, float, bool, type(None)})


def _plain(value: Any) -> Any:
    """Strip numpy scalar types out of a truth-record payload.

    Ground-truth records carry values straight from the synthesizer's
    numpy draws (``numpy.float64`` reaction times, ...), which the
    canonical JSON encoder rejects; the digest must also be identical
    whether a value arrived as a numpy scalar or a Python number.
    """
    # Exact built-ins (almost every value: the report lines) pass
    # through unchanged; only containers and subclasses need the
    # checks below.
    if type(value) in _PASS_THROUGH:
        return value
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):   # covers numpy.float64 (a subclass)
        return float(value)
    if isinstance(value, int):
        return int(value)
    item = getattr(value, "item", None)   # other numpy scalars
    if callable(item) and getattr(value, "shape", None) == ():
        return value.item()
    return value


def document_digest(document: RawDocument) -> str:
    """Content digest of one raw document, for change detection.

    Covers everything a journal body can depend on: the rendered
    lines (what OCR/parsing consume) **and** the ground-truth records
    — ``attach_truth`` copies truth tags into parsed records, so a
    truth-only change must invalidate the document's journal entry
    even though its lines are identical.
    """
    payload = {
        "kind": document.kind,
        "manufacturer": document.manufacturer,
        "lines": document.lines,
        "truth_disengagements": [
            r.to_dict() for r in document.truth_disengagements],
        "truth_mileage": [m.to_dict() for m in document.truth_mileage],
        "truth_accidents": [
            r.to_dict() for r in document.truth_accidents],
    }
    return sha256_text(canonical_json(_plain(payload)))


@dataclass
class IngestReport:
    """What one incremental ingest did (JSON-able)."""

    total_documents: int = 0
    #: Documents with no prior journal entry.
    new_documents: int = 0
    #: Documents whose content digest changed since last ingest.
    changed_documents: int = 0
    #: Journal entries dropped for documents no longer in the corpus.
    removed_documents: int = 0
    #: Documents whose Stage II journal entries were reused.
    reused_documents: int = 0
    #: Whether the checkpoint directory could not be reused at all.
    full_rebuild: bool = False
    #: Why a full rebuild happened (``None`` when incremental).
    reason: str | None = None
    #: Whether the tags journal was reusable (seed dictionary only).
    tags_reused: bool = False
    elapsed_s: float = 0.0
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        """JSON-able form (the CLI ``--json`` ingest section)."""
        return {
            "total_documents": self.total_documents,
            "new_documents": self.new_documents,
            "changed_documents": self.changed_documents,
            "removed_documents": self.removed_documents,
            "reused_documents": self.reused_documents,
            "full_rebuild": self.full_rebuild,
            "reason": self.reason,
            "tags_reused": self.tags_reused,
            "elapsed_s": self.elapsed_s,
            "notes": list(self.notes),
        }


@dataclass
class IngestResult:
    """An incremental run's pipeline result plus the ingest report."""

    result: PipelineResult
    report: IngestReport

    @property
    def database(self):
        """The (parity-guaranteed) combined database."""
        return self.result.database


def ingest_corpus(corpus: SyntheticCorpus,
                  config: PipelineConfig) -> IngestResult:
    """Incrementally process ``corpus`` against its checkpoint dir.

    ``corpus`` is the **combined** corpus (everything that should be
    in the database, not just the delta — the delta is detected, not
    declared).  ``config`` must name a ``checkpoint_dir``; the same
    directory carries state from ingest to ingest.  The returned
    database is byte-identical to
    ``process_corpus(corpus, config)`` from scratch.
    """
    if not config.checkpointing_active:
        raise ValueError(
            "ingest requires a checkpoint_dir: the checkpoint "
            "journals are what make incremental processing possible")
    started = time.perf_counter()
    report = IngestReport(total_documents=len(corpus.documents))
    directory = Path(config.checkpoint_dir)
    fingerprint = config_fingerprint(config)

    digests = {document.document_id: document_digest(document)
               for document in corpus.documents}
    reason = _reuse_problem(directory, fingerprint)
    if reason is None:
        _surgery(directory, config, corpus, digests, report)
    else:
        report.full_rebuild = True
        report.reason = reason
        report.new_documents = report.total_documents

    # The resume run restores every surviving journal entry and
    # computes the rest; on a full rebuild the store resets itself
    # (manifest mismatch) and this is an ordinary from-scratch run.
    result = process_corpus(corpus, replace(config, resume=True))

    _write_state(directory, fingerprint, digests)
    report.elapsed_s = time.perf_counter() - started
    return IngestResult(result=result, report=report)


# ----------------------------------------------------------------------
# Delta detection + journal surgery.
# ----------------------------------------------------------------------


def _reuse_problem(directory: Path, fingerprint: str) -> str | None:
    """Why the checkpoint directory cannot be reused (None = can).

    Delegates the manifest rules to :class:`CheckpointStore` — the
    same format/version/config-fingerprint checks that guard an
    ordinary ``--resume``.
    """
    if not directory.is_dir():
        return "no checkpoint directory yet (first ingest)"
    return CheckpointStore(
        directory, fingerprint)._manifest_problem()


def _surgery(directory: Path, config: PipelineConfig,
             corpus: SyntheticCorpus, digests: dict[str, str],
             report: IngestReport) -> None:
    """Drop stale journal state so the resume run recomputes it.

    Stale = a document whose content digest changed, or one that left
    the corpus.  The corpus-dependent artifacts are always deleted;
    the tags journal survives only in seed-dictionary mode.
    """
    previous = _read_state(directory, config)
    stale: set[str] = set()
    for document in corpus.documents:
        known = previous.get(document.document_id)
        if known is None:
            # No prior digest.  If the journals know the id anyway
            # (state file lost, or pre-ingest checkpoints), the entry
            # is trusted exactly as a plain --resume would trust it.
            report.new_documents += 1
        elif known != digests[document.document_id]:
            stale.add(document.document_id)
            report.changed_documents += 1
        else:
            report.reused_documents += 1

    current_ids = set(digests)
    for name in ("documents", "accidents"):
        removed = _rewrite_journal(
            directory / f"{name}.jsonl", stale, current_ids)
        report.removed_documents += removed

    # Corpus-wide artifacts are functions of the *whole* corpus —
    # never reusable across an ingest that changed it.
    (directory / "normalized.json").unlink(missing_ok=True)
    (directory / "dictionary.json").unlink(missing_ok=True)

    tags_path = directory / "tags.jsonl"
    if config.dictionary_mode == "seed":
        # The seed dictionary is corpus-independent, so a tag result
        # depends only on the record's description — reusable, except
        # for records of stale documents (unit ids are
        # ``<document_id>:<line>`` for provenance-carrying records).
        _rewrite_tags(tags_path, stale, current_ids)
        report.tags_reused = True
    else:
        tags_path.unlink(missing_ok=True)
        report.notes.append(
            "expanded dictionary mode: tags journal dropped (the "
            "dictionary — and with it any tag — can shift with the "
            "corpus)")


def _rewrite_journal(path: Path, stale: set[str],
                     current_ids: set[str]) -> int:
    """Keep only live entries of ``path``; returns removed-doc count.

    Entries for stale documents are dropped (recomputed by the resume
    run); entries for documents no longer in the corpus are dropped
    too (the runner would ignore them, but carrying them forever
    would grow the journal without bound).
    """
    if not path.exists():
        return 0
    entries, _corrupt = read_journal(path)
    removed = sum(1 for unit in entries if unit not in current_ids)
    if removed == 0 and not (stale & set(entries)):
        return 0
    kept = [journal_line(unit, body)
            for unit, body in entries.items()
            if unit in current_ids and unit not in stale]
    atomic_write_text(path, "".join(line + "\n" for line in kept))
    return removed


def _rewrite_tags(path: Path, stale: set[str],
                  current_ids: set[str]) -> None:
    """Drop tag entries belonging to stale or removed documents.

    A tag unit id is ``<document_id>:<line>`` when the record carries
    provenance, or ``record:<content-hash>`` otherwise.  The latter
    is content-derived, so it stays valid regardless of which
    document produced it (same description ⇒ same deterministic tag
    under the seed dictionary).
    """
    if not path.exists():
        return
    entries, _corrupt = read_journal(path)

    def live(unit: str) -> bool:
        if unit.startswith("record:"):
            return True
        doc_id = unit.rsplit(":", 1)[0]
        return doc_id in current_ids and doc_id not in stale

    kept = [journal_line(unit, body)
            for unit, body in entries.items() if live(unit)]
    if len(kept) == len(entries):
        return
    atomic_write_text(path, "".join(line + "\n" for line in kept))


# ----------------------------------------------------------------------
# The ingest state file.
# ----------------------------------------------------------------------


def _state_path(directory: Path) -> Path:
    return directory / INGEST_STATE


def _read_state(directory: Path,
                config: PipelineConfig) -> dict[str, str]:
    """Digest map from the previous ingest (empty when unusable).

    An absent, corrupt, or other-config state file yields an empty
    map: every document then counts as *new*, and its journal entries
    are trusted by id exactly as a plain ``--resume`` trusts them —
    losing the map can only cost recompute, never correctness.
    """
    import json

    path = _state_path(directory)
    if not path.exists():
        return {}
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
        if (data.get("format") != INGEST_FORMAT
                or data.get("fingerprint")
                != config_fingerprint(config)):
            return {}
        digests = data["digests"]
        if not isinstance(digests, dict):
            return {}
        return {str(k): str(v) for k, v in digests.items()}
    except (OSError, ValueError, KeyError, TypeError):
        return {}


def _write_state(directory: Path, fingerprint: str,
                 digests: dict[str, str]) -> None:
    """Atomically publish the digest map — only after a successful
    run, so a crashed ingest re-detects (and redoes) its delta."""
    atomic_write_text(
        _state_path(directory),
        canonical_json({
            "format": INGEST_FORMAT,
            "fingerprint": fingerprint,
            "digests": digests,
        }))
