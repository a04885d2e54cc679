"""End-to-end pipeline orchestration (Fig. 1).

Every per-document and per-record step runs through a
:class:`~repro.pipeline.resilience.StageGuard`, so one bad unit of
work is retried, degraded, or quarantined according to the configured
:class:`~repro.pipeline.resilience.FailurePolicy` instead of aborting
the whole run.  A clean run draws no randomness from the guard, so
resilient output is byte-identical to the historical unguarded
pipeline.

When the config names a checkpoint directory, completed units of work
are journaled through a
:class:`~repro.pipeline.checkpoint.CheckpointStore` at stage
boundaries, and a resume run restores them instead of recomputing —
keyed by the same stable unit ids the resilience layer uses, so a run
killed at any point (see
:data:`~repro.pipeline.chaos.CRASH_POINTS`) and resumed produces a
database byte-identical to an uninterrupted run.  Artifacts that fail
their checksum, or checkpoints written under a different config/seed,
are discarded and recomputed, never trusted.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import warnings
from dataclasses import asdict, dataclass
from typing import Callable, Iterator

from ..errors import (
    DegradedModeWarning,
    ParseError,
    PipelineError,
    QuarantinedError,
)
from ..nlp.dictionary import FailureDictionary
from ..nlp.evaluation import evaluate_tagger
from ..nlp.tagger import VotingTagger
from ..nlp.textcache import token_cache
from ..obs.metrics import default_registry
from ..obs.runtime import Observability
from ..parsing import filter_records, parse_accident_report
from ..parsing.filters import FilterStats
from ..parsing.normalize import (
    NormalizationStats,
    normalize_accident,
    normalize_records,
)
from ..parsing.records import (
    AccidentRecord,
    DisengagementRecord,
    MonthlyMileage,
)
from ..rng import child_generator
from ..synth.dataset import SyntheticCorpus, generate_corpus
from ..synth.reports import RawDocument
from ..taxonomy import FailureCategory, FaultTag, category_of
from .chaos import ChaosInjector, CrashController
from .checkpoint import CheckpointStore, config_fingerprint
from .config import PipelineConfig
from .parallel import (
    FANNED_STAGES,
    BatchOutcome,
    ParallelExecutor,
    StageDispatch,
    UnitOutcome,
    iter_units,
)
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
        config, stage_wall_s=diagnostics.parallel.stage_wall_s)
    guard = StageGuard(
        policy=config.resolved_policy(),
        seed=config.seed,
        quarantine=database.quarantine,
        chaos=(ChaosInjector(config.chaos, config.seed)
               if config.chaos is not None else None))
    diagnostics.health = guard.health
    store = None
    if config.checkpointing_active:
        store = CheckpointStore(
            config.checkpoint_dir, config_fingerprint(config),
            health=guard.health.checkpoint)
        store.open(resume=config.resume)
    # The process-global token cache serves every in-process consumer;
    # pool processes count their private caches per chunk instead.
    cache_before = token_cache().stats()
    try:
        with obs.tracer.span("run", kind="run", seed=config.seed,
                             workers=config.workers):
            with ParallelExecutor(config,
                                  diagnostics.parallel) as executor:
                run = _Run(config, diagnostics, database, guard, store,
                           CrashController(config.crash), executor,
                           obs)
                result = _run_stages(run, corpus)
        cache_after = token_cache().stats()
        diagnostics.token_cache_hits += (
            cache_after["hits"] - cache_before["hits"])
        diagnostics.token_cache_misses += (
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
    executor: ParallelExecutor
    obs: Observability


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
        restored_norm = _restore_normalized(store, config, diagnostics,
                                            checkpoint)
        if restored_norm is not None:
            filtered, mileage = restored_norm
        else:
            normalized, mileage, norm_stats = normalize_records(
                raw_disengagements, raw_mileage)
            diagnostics.normalization = norm_stats
            filtered, filter_stats = filter_records(
                normalized, drop_planned=config.drop_planned)
            diagnostics.filters = filter_stats
            if store is not None:
                store.write_artifact("normalized", {
                    "disengagements": [r.to_dict() for r in filtered],
                    "mileage": [m.to_dict() for m in mileage],
                    "normalization": asdict(norm_stats),
                    "filters": asdict(filter_stats),
                })
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
                    "dictionary", json.loads(dictionary.to_json()))
        diagnostics.dictionary_entries = len(dictionary)
    crash.reached("dictionary")

    tagger = VotingTagger(dictionary)
    with obs.stage("tag", records=len(filtered)):
        _stage3(run, filtered, tagger)
    crash.reached("tag")
    if store is not None:
        store.sync()

    if config.attach_truth:
        with obs.stage("evaluate"):
            # Score the tags Stage III stored: no second tagging pass.
            diagnostics.tagging = evaluate_tagger(None, filtered)

    par = diagnostics.parallel
    if par.enabled:
        par.parallel_wall_s = sum(par.stage_wall_s.get(stage, 0.0)
                                  for stage in FANNED_STAGES)
    run.database.disengagements = filtered
    run.database.mileage = mileage
    return PipelineResult(
        database=run.database, diagnostics=diagnostics, config=config)


# ----------------------------------------------------------------------
# Stage loops.  Every unit is either restored from its journal entry or
# adopted from the executor's outcome, strictly in corpus order — the
# same loop at every worker count.
# ----------------------------------------------------------------------

#: Stage II document kind -> (stage, journal, mid-stage kill point).
_DOCUMENT_STAGES = {
    "disengagement": ("parse-documents", "documents",
                      "mid-parse-documents"),
    "accident": ("accident-documents", "accidents", None),
}


def _stage2(run: _Run, kind: str, documents: list[RawDocument],
            raw_disengagements: list, raw_mileage: list) -> None:
    """Stage II over one document kind: restore or adopt each one."""
    stage, journal, mid_crash = _DOCUMENT_STAGES[kind]
    diagnostics, database = run.diagnostics, run.database
    parse = diagnostics.parse

    def adopt(result: tuple) -> None:
        verdict, value = result
        if verdict == "quarantined":
            database.quarantine.add(value)
        elif verdict == "parse_error":
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

    def on_restored(index: int, result: tuple) -> None:
        adopt(result)
        parse.documents_restored += 1
        if result[0] == "quarantined":
            # Re-adopt the pre-crash verdict's health too.
            stats = run.guard.health.stage(result[1].stage)
            stats.attempts += 1
            stats.errors += 1
            stats.quarantined += 1

    def on_outcome(index: int, outcome: UnitOutcome) -> None:
        if outcome.ocr is not None:
            _merge_ocr_stats(outcome.ocr, diagnostics)
        adopt(outcome.body)
        if outcome.body[0] == "quarantined":
            _check_merged_thresholds(outcome, run.guard)

    _merge_units(
        run, stage, [document.document_id for document in documents],
        journal, lambda entry: _decode_document(entry, kind),
        _encode_document,
        lambda pending: run.executor.map_documents(
            [(kind, documents[i]) for i in pending], stage),
        on_restored, on_outcome, mid_crash)


def _stage3(run: _Run, filtered: list[DisengagementRecord],
            tagger: VotingTagger) -> None:
    """Stage III: restore or adopt each record's tag."""

    def on_restored(index: int, result: tuple) -> None:
        filtered[index].tag, filtered[index].category = result

    def on_outcome(index: int, outcome: UnitOutcome) -> None:
        on_restored(index, outcome.body)

    ids = [record_id(record) for record in filtered]
    _merge_units(
        run, "tag", ids, "tags", _decode_tag, _encode_tag,
        lambda pending: run.executor.map_tags(
            tagger, [(ids[i], filtered[i].description) for i in pending]),
        on_restored, on_outcome, "mid-tag")


def _merge_units(run: _Run, stage: str, unit_ids: list[str],
                 journal: str, decode: Callable[[dict], tuple],
                 encode: Callable[[tuple], dict],
                 dispatch: Callable[[list[int]], Iterator[BatchOutcome]],
                 on_restored: Callable[[int, tuple], None],
                 on_outcome: Callable[[int, UnitOutcome], None],
                 mid_crash: str | None) -> None:
    """The one stage loop: restore each unit or adopt its outcome.

    Journal entries of ``journal`` that ``decode`` turns into unit
    results are restored through ``on_restored``; every other unit's
    index goes to ``dispatch`` (the executor), whose chunk outcomes
    come back in the same order.  Walking ``unit_ids`` in corpus
    order, each computed unit's health and ``fail_fast`` sidecars are
    folded, its result is adopted through ``on_outcome`` and then
    journaled (``encode``), buffered per chunk.  Once every unit is
    merged, the stage's unit count lands on the run's
    :class:`~repro.pipeline.parallel.ParallelStats`.
    """
    guard, store, obs = run.guard, run.store, run.obs
    checkpoint = guard.health.checkpoint
    restored = _restorable(store, journal, unit_ids, decode, checkpoint)
    batcher = (_JournalBatcher(store, journal)
               if store is not None else None)
    outcomes = iter_units(
        dispatch([i for i, unit_id in enumerate(unit_ids)
                  if unit_id not in restored]),
        _batch_folder(run, stage, batcher))
    try:
        for index, unit_id in enumerate(unit_ids):
            if mid_crash is not None:
                run.crash.reached_mid(mid_crash, index, len(unit_ids))
            decoded = restored.get(unit_id)
            if decoded is not None:
                on_restored(index, decoded)
                checkpoint.restored_units += 1
                obs.restored_unit(stage, unit_id)
                continue
            outcome = next(outcomes)
            obs.unit(stage, unit_id, outcome.elapsed)
            if outcome.health is not None:
                # Per-unit delta: its chunk carried a quarantine.
                _fold_health_delta(outcome.health, guard)
            if outcome.error is not None:
                raise PipelineError(outcome.error)
            on_outcome(index, outcome)
            if batcher is not None:
                batcher.append(unit_id, encode(outcome.body))
                checkpoint.recomputed_units += 1
    finally:
        # Buffered entries are completed units: journal them even
        # when a crash/abort unwinds the loop.
        if batcher is not None:
            batcher.flush()
    run.diagnostics.parallel.stage_units[stage] = len(unit_ids)


def _restorable(store: CheckpointStore | None, journal: str,
                unit_ids: list[str], decode: Callable[[dict], tuple],
                checkpoint) -> dict[str, tuple]:
    """Decoded journal entries for ``unit_ids``, keyed by unit id.

    An entry that does not decode is noted and left out, so its unit
    is computed like any other (corrupt shapes are never trusted).
    """
    entries = store.restored(journal) if store is not None else {}
    if not entries:
        return {}
    restored = {}
    for unit_id in unit_ids:
        entry = entries.get(unit_id)
        if entry is None:
            continue
        try:
            restored[unit_id] = decode(entry)
        except Exception:
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
# result is ``(tag, category)``.  Only the coordinator encodes them,
# when it journals; a resume decodes them back.
# ----------------------------------------------------------------------

def _encode_document(result: tuple) -> dict:
    """The journal body of a Stage II result."""
    verdict, value = result
    if verdict == "quarantined":
        return {"outcome": verdict, "entry": value.to_dict()}
    if verdict == "parse_error":
        return {"outcome": verdict, "unparsed": value}
    if isinstance(value, AccidentRecord):
        return {"outcome": verdict, "accident": value.to_dict()}
    records, cells, unparsed = value
    return {"outcome": verdict,
            "disengagements": [r.to_dict() for r in records],
            "mileage": [m.to_dict() for m in cells],
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
    return FaultTag(body["tag"]), FailureCategory(body["category"])


class _JournalBatcher:
    """Buffers one stage's journal appends for per-chunk flushing.

    Entries accumulate in merge (corpus) order and land with one
    buffered multi-line :meth:`~repro.pipeline.checkpoint.
    CheckpointStore.append_many` per dispatch chunk, so the journal
    file is line-for-line identical at every batch size.  A crash can
    additionally lose the current chunk's buffered entries (on top of
    the writer's usual fsync window); resume simply recomputes them.
    """

    def __init__(self, store: CheckpointStore, name: str) -> None:
        self._store = store
        self._name = name
        self._entries: list[tuple[str, dict]] = []

    def append(self, unit_id: str, body: dict) -> None:
        self._entries.append((unit_id, body))

    def flush(self) -> None:
        if self._entries:
            self._store.append_many(self._name, self._entries)
            self._entries.clear()


def _batch_folder(run: _Run, stage: str,
                  batcher: _JournalBatcher | None):
    """The once-per-chunk merge hook for one stage.

    Fires when the coordinator pulls a chunk, right before its units
    unpack: the previous chunk's journal buffer flushes (one
    multi-line append per chunk), and the chunk-level sidecars — the
    merged health delta, chaos count and token-cache counts, plus a
    pooled run's dispatch record for the stage — fold exactly once.
    Payload bytes are measured, by pickling the chunk again, only when
    the run collects metrics.
    """
    guard, diagnostics = run.guard, run.diagnostics
    par = diagnostics.parallel
    tally = None
    if par.enabled:
        tally = par.dispatch[stage] = StageDispatch()
    measure_payload = run.config.metrics_enabled

    def fold(batch: BatchOutcome) -> None:
        if batcher is not None:
            batcher.flush()
        if batch.health is not None:
            _fold_health_delta(batch.health, guard)
        if guard.chaos is not None:
            guard.chaos.injected += batch.injected
        diagnostics.token_cache_hits += batch.cache_hits
        diagnostics.token_cache_misses += batch.cache_misses
        if tally is not None:
            tally.tasks += 1
            tally.units += batch.units
            par.unit_compute_s += batch.elapsed
            if measure_payload:
                tally.payload_bytes += len(pickle.dumps(batch))

    return fold


# ----------------------------------------------------------------------
# Merge helpers.  The coordinator folds each outcome's sidecars in
# corpus order, so run health is identical at every worker count.
# ----------------------------------------------------------------------

def _fold_health_delta(delta: tuple, guard: StageGuard) -> None:
    """Fold a ``(stages, events)`` health delta into the run health."""
    par_stats, events = delta
    for name, (attempts, errors, retries, degradations,
               quarantined) in par_stats.items():
        stats = guard.health.stage(name)
        stats.attempts += attempts
        stats.errors += errors
        stats.retries += retries
        stats.degradations += degradations
        stats.quarantined += quarantined
    guard.health.degradation_events.extend(events)


def _check_merged_thresholds(outcome: UnitOutcome,
                             guard: StageGuard) -> None:
    """Enforce the threshold policy on the merged counters.

    Chunks run under ``quarantine`` (only the coordinator has the
    run-global counters), so the merge checks each stage whose delta
    carries a quarantine — with the merged stats, the run aborts at
    the unit whose failure crosses the threshold.  A quarantined unit
    always arrives with a per-unit delta (its chunk switches to
    ``unit_health``), so ``health`` is never ``None`` here.
    """
    if outcome.health is None:  # pragma: no cover - invariant guard
        return
    for name, counters in outcome.health[0].items():
        if counters[4]:  # quarantined
            guard.check_threshold(name)


def _merge_ocr_stats(delta: OcrStageStats,
                     diagnostics: PipelineDiagnostics) -> None:
    """Fold one document's OCR stats into the run's.

    Replays the OCR stage's running-mean update in merge (corpus)
    order — one document's mean is its confidence — so the merged
    confidence is identical at every worker count.
    """
    stats = diagnostics.ocr
    stats.documents += 1
    stats.pages += delta.pages
    stats.lines += delta.lines
    stats.mean_confidence += (
        delta.mean_confidence - stats.mean_confidence) / stats.documents
    stats.fallback_pages += delta.fallback_pages
    stats.fallback_lines += delta.fallback_lines


# ----------------------------------------------------------------------
# Per-unit processing, called by the chunk functions in
# :mod:`~repro.pipeline.parallel`.  Each returns the unit's Stage II
# result (see above).
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
    if config.attach_truth:
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
# Stage-artifact restore paths (corrupt payloads are recomputed, never
# trusted).
# ----------------------------------------------------------------------

def _restore_normalized(store: CheckpointStore | None,
                        config: PipelineConfig,
                        diagnostics: PipelineDiagnostics,
                        checkpoint) -> tuple[list, list] | None:
    """Adopt the normalized+filtered stage artifact, if usable."""
    if store is None or not config.resume:
        return None
    payload = store.load_artifact("normalized")
    if payload is None:
        return None
    try:
        filtered = [DisengagementRecord.from_dict(d)
                    for d in payload["disengagements"]]
        mileage = [MonthlyMileage.from_dict(m)
                   for m in payload["mileage"]]
        norm_stats = NormalizationStats(**payload["normalization"])
        filter_stats = FilterStats(**payload["filters"])
    except Exception:
        checkpoint.corrupt_entries += 1
        checkpoint.notes.append(
            "artifact 'normalized' could not be decoded; recomputed")
        return None
    diagnostics.normalization = norm_stats
    diagnostics.filters = filter_stats
    checkpoint.artifacts_restored += 1
    return filtered, mileage


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


def _unknown_tag():
    """Degraded tagging outcome: the explicit UNKNOWN tag/category."""
    from ..nlp.tagger import TagResult

    return TagResult(
        tag=FaultTag.UNKNOWN,
        category=category_of(FaultTag.UNKNOWN),
        confident=False)


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
