"""End-to-end pipeline orchestration (Fig. 1).

Every per-document step (OCR, parse, accident normalize) and the
dictionary build run through a
:class:`~repro.pipeline.resilience.StageGuard`, so one report the
pipeline cannot handle is degraded or quarantined according to the
configured :class:`~repro.pipeline.resilience.FailurePolicy` instead
of aborting the whole run.  Tagging runs unguarded: it adopts what one
batched tagger call already computed.  A clean run draws no
randomness from the guard, so resilient output is byte-identical to
the historical unguarded pipeline.

When the config names a checkpoint directory, completed units of work
are journaled through a
:class:`~repro.pipeline.checkpoint.CheckpointStore` at stage
boundaries, and a resume run restores them instead of recomputing —
keyed by stable unit ids (document ids, :func:`record_id`), so a run
killed at any point (see
:data:`~repro.pipeline.chaos.CRASH_POINTS`) and resumed produces a
database byte-identical to an uninterrupted run.  Each stage loop
streams its own journal, so restoring a unit parses its journal line
once and holds no whole journal.  The normalize and filter steps
always recompute from the Stage II records, restored or not: that
costs less than reading a stored copy.  Journal lines and artifacts
that fail their checksum, or checkpoints written under a different
config/seed, are discarded and recomputed, never trusted.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass
from typing import Callable

from ..errors import DegradedModeWarning, ParseError, QuarantinedError
from ..nlp.dictionary import FailureDictionary
from ..nlp.evaluation import evaluate_tagger
from ..nlp.tagger import VotingTagger
from ..nlp.textcache import token_cache
from ..obs.metrics import default_registry
from ..obs.runtime import Observability
from ..parsing.accidents import parse_accident_report
from ..parsing.base import ParserRegistry, default_registry as parser_registry
from ..parsing.filters import filter_records
from ..parsing.normalize import normalize_accident, normalize_records
from ..parsing.records import (
    AccidentRecord,
    DisengagementRecord,
    MonthlyMileage,
)
from ..rng import child_generator
from ..synth.dataset import SyntheticCorpus, generate_corpus
from ..synth.reports import RawDocument
from ..taxonomy import (
    CATEGORY_BY_VALUE,
    TAG_BY_VALUE,
    FailureCategory,
    FaultTag,
)
from .chaos import CrashController
from .checkpoint import CheckpointStore, config_fingerprint
from .config import PipelineConfig
from .resilience import QuarantineEntry, StageGuard
from .stages import (
    OcrStage,
    OcrStageStats,
    PipelineDiagnostics,
    render_metrics,
)
from .store import FailureDatabase


@dataclass
class PipelineResult:
    """Output of one pipeline run."""

    database: FailureDatabase
    diagnostics: PipelineDiagnostics
    config: PipelineConfig


def run_pipeline(config: PipelineConfig | None = None) -> PipelineResult:
    """Synthesize the corpus and process it end to end."""
    config = config or PipelineConfig()
    corpus = generate_corpus(config.seed, config.manufacturers)
    return process_corpus(corpus, config)


def process_corpus(corpus: SyntheticCorpus,
                   config: PipelineConfig | None = None) -> PipelineResult:
    """Process an existing raw corpus through Stages II-IV."""
    config = config or PipelineConfig()
    diagnostics = PipelineDiagnostics()
    database = FailureDatabase()
    obs = Observability.for_run(
        config, stage_wall_s=diagnostics.stage_wall_s)
    guard = StageGuard(
        policy=config.resolved_policy(),
        quarantine=database.quarantine)
    diagnostics.health = guard.health
    store = None
    if config.checkpointing_active:
        store = CheckpointStore(
            config.checkpoint_dir, config_fingerprint(config),
            health=guard.health.checkpoint)
        store.open(resume=config.resume)
    cache_before = token_cache().stats()
    try:
        with obs.tracer.span("run", kind="run", seed=config.seed):
            run = _Run(config, diagnostics, database, guard, store,
                       CrashController(config.crash), obs,
                       (OcrStage(config.correction_enabled)
                        if config.ocr_enabled else None),
                       parser_registry())
            result = _run_stages(run, corpus)
        cache_after = token_cache().stats()
        diagnostics.token_cache_hits = (
            cache_after["hits"] - cache_before["hits"])
        diagnostics.token_cache_misses = (
            cache_after["misses"] - cache_before["misses"])
        if config.metrics_enabled:
            registry = render_metrics(diagnostics)
            diagnostics.metrics = registry.to_dict()
            # An in-process query server scrapes cumulative pipeline
            # series from the process-global registry.
            default_registry().merge(registry.dump())
        if config.trace_path is not None:
            diagnostics.trace_path = str(config.trace_path)
        return result
    finally:
        # Journaled units still in the writers' buffers are completed
        # work: closing flushes them even when a crash or an abort
        # unwinds the run.
        if store is not None:
            store.close()
        obs.close()


@dataclass
class _Run:
    """What every stage of one run shares."""

    config: PipelineConfig
    diagnostics: PipelineDiagnostics
    database: FailureDatabase
    guard: StageGuard
    store: CheckpointStore | None
    crash: CrashController
    obs: Observability
    #: The OCR channel (``None`` when the config turns it off).
    ocr_stage: OcrStage | None
    parsers: ParserRegistry


def _run_stages(run: _Run, corpus: SyntheticCorpus) -> PipelineResult:
    config, diagnostics, obs = run.config, run.diagnostics, run.obs
    store, crash = run.store, run.crash
    checkpoint = run.guard.health.checkpoint

    # ---- Stage II: per-document OCR -> parse ---------------------------
    raw_disengagements: list[DisengagementRecord] = []
    raw_mileage: list[MonthlyMileage] = []
    for kind, documents in (
            ("disengagement", corpus.disengagement_documents),
            ("accident", corpus.accident_documents)):
        stage = _DOCUMENT_STAGES[kind][0]
        with obs.stage(stage, documents=len(documents)):
            _stage2(run, kind, documents, raw_disengagements,
                    raw_mileage)
        crash.reached(stage)
        if store is not None:
            store.sync()

    # ---- Stage II/III boundary: normalize + filter -------------------
    with obs.stage("normalize"):
        normalized, mileage, diagnostics.normalization = (
            normalize_records(raw_disengagements, raw_mileage))
        filtered, diagnostics.filters = filter_records(
            normalized, drop_planned=config.drop_planned)
    crash.reached("normalize")

    # ---- Stage III: dictionary + tagging -----------------------------
    with obs.stage("dictionary", mode=config.dictionary_mode):
        dictionary = _restore_dictionary(store, config, checkpoint)
        if dictionary is None:
            dictionary = run.guard.run(
                "dictionary", "corpus",
                lambda: _build_dictionary(filtered, config),
                fallback=lambda: _degraded_dictionary())
            if store is not None:
                store.write_artifact(
                    "dictionary", [vars(e) for e in dictionary.entries])
        diagnostics.dictionary_entries = len(dictionary)
    crash.reached("dictionary")

    tagger = VotingTagger(dictionary)
    with obs.stage("tag", records=len(filtered)):
        _stage3(run, filtered, tagger)
    crash.reached("tag")
    if store is not None:
        store.sync()

    with obs.stage("evaluate"):
        # Score the tags Stage III stored: no second tagging pass.
        diagnostics.tagging = evaluate_tagger(None, filtered)

    run.database.disengagements = filtered
    run.database.mileage = mileage
    return PipelineResult(
        database=run.database, diagnostics=diagnostics, config=config)


# ----------------------------------------------------------------------
# Stage loops.  Every unit is either restored from its journal entry or
# computed in place, strictly in corpus order, under the run's guard.
# ----------------------------------------------------------------------

#: Stage II document kind -> (stage, journal, mid-stage kill point).
_DOCUMENT_STAGES = {
    "disengagement": ("parse-documents", "documents",
                      "mid-parse-documents"),
    "accident": ("accident-documents", "accidents", None),
}


def _stage2(run: _Run, kind: str, documents: list[RawDocument],
            raw_disengagements: list, raw_mileage: list) -> None:
    """Stage II over one document kind: restore or compute each one."""
    stage, journal, mid_crash = _DOCUMENT_STAGES[kind]
    config, guard, database = run.config, run.guard, run.database
    parse, ocr = run.diagnostics.parse, run.diagnostics.ocr

    def adopt(index: int, result: tuple) -> None:
        verdict, value = result
        if verdict == "quarantined":
            return  # the guard dead-lettered it into the database
        if verdict == "parse_error":
            parse.unparsed_lines += value
        elif kind == "accident":
            parse.accidents_parsed += 1
            database.accidents.append(value)
        else:
            records, cells, unparsed = value
            parse.documents += 1
            parse.disengagements_parsed += len(records)
            parse.mileage_cells_parsed += len(cells)
            parse.unparsed_lines += unparsed
            raw_disengagements.extend(records)
            raw_mileage.extend(cells)

    def restore(index: int, result: tuple) -> None:
        adopt(index, result)
        parse.documents_restored += 1
        if result[0] == "quarantined":
            # Re-adopt the pre-crash verdict and its health.
            entry = result[1]
            database.quarantine.add(entry)
            stats = guard.health.stage(entry.stage)
            stats.attempts += 1
            stats.errors += 1
            stats.quarantined += 1

    def compute(index: int) -> tuple:
        document = documents[index]
        if kind == "disengagement":
            return _process_disengagement(document, config, ocr, guard,
                                          run.ocr_stage, run.parsers)
        return _process_accident(document, config, ocr, guard,
                                 run.ocr_stage)

    _merge_units(
        run, stage, [document.document_id for document in documents],
        journal, lambda entry: _decode_document(entry, kind),
        _encode_document, lambda pending: compute, adopt, restore,
        mid_crash)


def _stage3(run: _Run, filtered: list[DisengagementRecord],
            tagger: VotingTagger) -> None:
    """Stage III: restore or compute each record's tag.

    The narratives of every record the stage computes go through the
    batch-native :meth:`~repro.nlp.tagger.VotingTagger.tag_batch` in
    one call, ahead of the loop, which then adopts and journals each
    precomputed result in corpus order.
    """
    def adopt(index: int, result: tuple) -> None:
        filtered[index].tag, filtered[index].category = result

    def prepare(pending: list[int]) -> Callable[[int], tuple]:
        tagged = dict(zip(pending, tagger.tag_batch(
            [filtered[index].description for index in pending])))

        def compute(index: int) -> tuple:
            result = tagged[index]
            return result.tag, result.category

        return compute

    ids = [record_id(record) for record in filtered]
    _merge_units(run, "tag", ids, "tags", _decode_tag, _encode_tag,
                 prepare, adopt, adopt, "mid-tag")


def _merge_units(run: _Run, stage: str, unit_ids: list[str],
                 journal: str, decode: Callable[[dict], tuple],
                 encode: Callable[[tuple], dict],
                 prepare: Callable[[list[int]], Callable[[int], tuple]],
                 adopt: Callable[[int, tuple], None],
                 restore: Callable[[int, tuple], None],
                 mid_crash: str | None) -> None:
    """The one stage loop: restore each unit or compute it in place.

    Journal entries of ``journal`` that ``decode`` turns into unit
    results are restored through ``restore``; ``prepare`` gets the
    indices of every other unit and returns the function that
    computes one of them.  Walking ``unit_ids`` in corpus order, each
    computed result is adopted through ``adopt`` and journaled
    (``encode``) through the store's buffered writer.  A ``fail_fast``
    or ``threshold`` verdict raises out of a Stage II guard at the
    failing unit itself.  Once every unit is in, the stage's unit
    count lands on the run's diagnostics.
    """
    store, obs = run.store, run.obs
    checkpoint = run.guard.health.checkpoint
    restored = _restorable(store, journal, unit_ids, decode, checkpoint)
    compute = prepare([i for i, unit_id in enumerate(unit_ids)
                       if unit_id not in restored])
    for index, unit_id in enumerate(unit_ids):
        if mid_crash is not None:
            run.crash.reached_mid(mid_crash, index, len(unit_ids))
        decoded = restored.get(unit_id)
        if decoded is not None:
            restore(index, decoded)
            checkpoint.restored_units += 1
            obs.restored_unit(stage, unit_id)
            continue
        if obs.active:
            with obs.unit(stage, unit_id):
                result = compute(index)
        else:
            result = compute(index)
        adopt(index, result)
        if store is not None:
            store.append(journal, unit_id, encode(result))
            checkpoint.recomputed_units += 1
    run.diagnostics.stage_units[stage] = len(unit_ids)


def _restorable(store: CheckpointStore | None, journal: str,
                unit_ids: list[str], decode: Callable[[dict], tuple],
                checkpoint) -> dict[str, tuple]:
    """Decoded journal entries for ``unit_ids``, keyed by unit id.

    The journal streams past one line at a time: each entry of a
    wanted unit is decoded as it is read and its parsed body dropped.
    A unit's last intact line decides it, as when a unit is
    re-journaled.  A unit whose last entry does not decode is noted
    and left out, so it is computed like any other (corrupt shapes are
    never trusted).
    """
    if store is None:
        return {}
    wanted = set(unit_ids)
    restored: dict[str, tuple] = {}
    unusable: set[str] = set()
    for unit_id, body in store.restored(journal):
        if unit_id not in wanted:
            continue
        try:
            restored[unit_id] = decode(body)
            unusable.discard(unit_id)
        except Exception:
            restored.pop(unit_id, None)
            unusable.add(unit_id)
    for unit_id in unit_ids:
        if unit_id in unusable:
            checkpoint.corrupt_entries += 1
            checkpoint.notes.append(
                f"journal {journal!r} entry for {unit_id!r} unusable; "
                "recomputed")
    return restored


# ----------------------------------------------------------------------
# Unit results and their journal bodies.  A Stage II result is
# ``(verdict, value)``: ``("ok", (records, mileage, unparsed))`` for a
# disengagement report, ``("ok", accident)`` for an accident report,
# ``("parse_error", unparsed)`` or ``("quarantined", entry)``.  A tag
# result is ``(tag, category)``.  The stage loop encodes each one as it
# journals it; a resume decodes them back.
#
# Records are journaled as their attribute dicts, which orjson writes
# exactly as ``to_dict()`` spells them (enum values, ISO dates, tuples
# as lists), as the database encoder does.
# ----------------------------------------------------------------------

def _encode_document(result: tuple) -> dict:
    """The journal body of a Stage II result."""
    verdict, value = result
    if verdict == "quarantined":
        return {"outcome": verdict, "entry": value.to_dict()}
    if verdict == "parse_error":
        return {"outcome": verdict, "unparsed": value}
    if isinstance(value, AccidentRecord):
        return {"outcome": verdict, "accident": vars(value)}
    records, cells, unparsed = value
    return {"outcome": verdict,
            "disengagements": [vars(r) for r in records],
            "mileage": [vars(m) for m in cells],
            "unparsed": unparsed}


def _decode_document(body: dict, kind: str) -> tuple:
    """The Stage II result a journal body encodes; raises if malformed."""
    verdict = body["outcome"]
    if verdict == "quarantined":
        return verdict, QuarantineEntry.from_dict(body["entry"])
    if verdict == "parse_error":
        return verdict, int(body["unparsed"])
    if verdict != "ok":
        raise ValueError(f"unknown outcome {verdict!r}")
    if kind == "accident":
        return verdict, AccidentRecord.from_dict(body["accident"])
    return verdict, (
        [DisengagementRecord.from_dict(d)
         for d in body["disengagements"]],
        [MonthlyMileage.from_dict(m) for m in body["mileage"]],
        int(body["unparsed"]))


def _encode_tag(result: tuple[FaultTag, FailureCategory]) -> dict:
    """The journal body of a tag result."""
    tag, category = result
    return {"tag": tag.value, "category": category.value}


def _decode_tag(body: dict) -> tuple[FaultTag, FailureCategory]:
    """The tag result a journal body encodes; raises if malformed."""
    return TAG_BY_VALUE[body["tag"]], CATEGORY_BY_VALUE[body["category"]]


# ----------------------------------------------------------------------
# Per-unit processing.  Each returns the unit's Stage II result (see
# above).
# ----------------------------------------------------------------------

def _process_disengagement(document: RawDocument,
                           config: PipelineConfig,
                           ocr_stats: OcrStageStats,
                           guard: StageGuard,
                           ocr_stage: OcrStage | None,
                           registry) -> tuple:
    try:
        lines = guard.run(
            "ocr", document.document_id,
            lambda: _through_ocr(document, ocr_stage, config,
                                 ocr_stats))
    except QuarantinedError:
        return _quarantined(guard)
    try:
        parsed = guard.run(
            "parse", document.document_id,
            lambda: registry.resolve(lines).parse(
                lines, document.document_id),
            expected=(ParseError,))
    except ParseError:
        return "parse_error", _non_blank(lines)
    except QuarantinedError:
        return _quarantined(guard)
    _attach_truth(document, parsed.disengagements)
    return "ok", (parsed.disengagements, parsed.mileage,
                  _non_blank(parsed.unparsed_lines))


def _process_accident(document: RawDocument, config: PipelineConfig,
                      ocr_stats: OcrStageStats, guard: StageGuard,
                      ocr_stage: OcrStage | None) -> tuple:
    try:
        lines = guard.run(
            "ocr", document.document_id,
            lambda: _through_ocr(document, ocr_stage, config,
                                 ocr_stats))
    except QuarantinedError:
        return _quarantined(guard)
    try:
        accident = guard.run(
            "parse", document.document_id,
            lambda: parse_accident_report(
                lines, document.document_id),
            expected=(ParseError,))
    except ParseError:
        return "parse_error", _non_blank(lines)
    except QuarantinedError:
        return _quarantined(guard)
    try:
        return "ok", guard.run(
            "normalize", document.document_id,
            lambda: normalize_accident(accident))
    except QuarantinedError:
        return _quarantined(guard)


def _quarantined(guard: StageGuard) -> tuple:
    """The result of a unit the guard just dead-lettered."""
    return "quarantined", guard.quarantine.entries[-1]


# ----------------------------------------------------------------------
# Stage-artifact restore path (a corrupt payload is recomputed, never
# trusted).
# ----------------------------------------------------------------------

def _restore_dictionary(store: CheckpointStore | None,
                        config: PipelineConfig,
                        checkpoint) -> FailureDictionary | None:
    """Adopt the built-dictionary stage artifact, if usable."""
    if store is None or not config.resume:
        return None
    payload = store.load_artifact("dictionary")
    if payload is None:
        return None
    try:
        dictionary = FailureDictionary.from_json(json.dumps(payload))
    except Exception:
        checkpoint.corrupt_entries += 1
        checkpoint.notes.append(
            "artifact 'dictionary' could not be decoded; recomputed")
        return None
    checkpoint.artifacts_restored += 1
    return dictionary


# ----------------------------------------------------------------------
# Shared helpers.
# ----------------------------------------------------------------------

def _non_blank(lines: list[str]) -> int:
    """Count the non-blank lines (blank ones are not 'unparsed')."""
    return sum(1 for line in lines if line.strip())


def record_id(record) -> str:
    """A stable unit id for one disengagement record.

    Records without provenance get a content-derived id rather than a
    positional one: a position shifts whenever an earlier record is
    filtered or quarantined, which would silently re-key the unit
    across a resume.
    """
    if record.source_document is not None:
        return f"{record.source_document}:{record.source_line}"
    digest = hashlib.sha256("|".join((
        record.manufacturer, record.month, record.description,
    )).encode("utf-8")).hexdigest()[:16]
    return f"record:{digest}"


def _degraded_dictionary() -> FailureDictionary:
    """Fallback when the corpus-expanded dictionary build fails."""
    warnings.warn(
        "expanded dictionary build failed; falling back to the "
        "hand-curated seed dictionary",
        DegradedModeWarning, stacklevel=2)
    return FailureDictionary.from_seeds()


def _through_ocr(document: RawDocument, ocr_stage: OcrStage | None,
                 config: PipelineConfig,
                 ocr_stats: OcrStageStats) -> list[str]:
    if ocr_stage is None:
        return list(document.lines)
    rng = child_generator(config.seed, f"ocr:{document.document_id}")
    return ocr_stage.process(document, rng, ocr_stats)


def _attach_truth(document: RawDocument, parsed) -> None:
    """Copy ground-truth tags onto parsed records by source line.

    Line numbers are stable through the OCR channel (lines are never
    merged or split), so (document, line) identifies the record.
    """
    truth_by_line = {r.source_line: r
                     for r in document.truth_disengagements}
    for record in parsed:
        truth = truth_by_line.get(record.source_line)
        if truth is not None:
            record.truth_tag = truth.truth_tag


def _build_dictionary(records, config: PipelineConfig) -> FailureDictionary:
    if config.dictionary_mode == "seed":
        return FailureDictionary.from_seeds()
    texts = [r.description for r in records]
    return FailureDictionary.build(texts)
