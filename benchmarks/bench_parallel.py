"""Parallel fan-out and tagger hot-path benchmarks.

Five budgets guard this perf work:

1. **End-to-end speedup** — ``--workers 4`` must beat serial by
   >= 1.5x on a >= 4-core machine (scaled down to >= 1.1x on 2-3
   cores, waived on a single core where parallel speedup is
   physically impossible).  The parallel run is also asserted
   byte-identical to serial, so the speedup can never be bought with
   drift.
2. **Serial overhead** — with ``--workers`` unset the runner must stay
   within 5% of a pre-parallel replica of the same serial loop (the
   fan-out plumbing may not tax people who don't use it).
3. **Tagger index** — the inverted-index matcher must beat the
   :func:`match_linear` reference scan by >= 5x per record (this is
   the core-count-independent part, asserted everywhere).
4. **Batched tagging** — ``tag_batch`` over the whole corpus must beat
   the per-unit ``tag`` loop by >= 1.3x (one normalization/tokenize
   pass through the shared cache, candidate sets via the inverted
   index, duplicate narratives deduped by identity), with results
   asserted equal element-by-element.
5. **Chunked payload** — at 2 workers, the chunked ``BatchOutcome``
   wire encoding must cut pickled bytes per unit by >= 30% versus the
   per-unit ``UnitOutcome`` stream it replaced (the chunk ships one
   merged health delta / wall time instead of one per unit).

Run as a script (``python benchmarks/bench_parallel.py``) for the
self-contained report CI runs; ``--out`` additionally writes the
measurements as JSON (the committed ``BENCH_pipeline.json`` baseline
is a snapshot of that report).
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import subprocess
import time
from pathlib import Path

from repro.errors import ParseError, QuarantinedError
from repro.nlp.dictionary import DictionaryEntry, FailureDictionary
from repro.nlp.evaluation import evaluate_tagger
from repro.nlp.tagger import VotingTagger
from repro.nlp.textcache import cached_tokens
from repro.parsing import (
    default_registry,
    filter_records,
    parse_accident_report,
)
from repro.parsing.normalize import normalize_accident, normalize_records
from repro.pipeline import (
    FailureDatabase,
    PipelineConfig,
    StageGuard,
    process_corpus,
)
from repro.pipeline import runner
from repro.pipeline.parallel import (
    BatchOutcome,
    UnitOutcome,
    resolve_batch_size,
)
from repro.pipeline.stages import OcrStage, PipelineDiagnostics
from repro.synth import generate_corpus

SEED = 2018
SUBSET = ["Nissan", "Volkswagen", "Delphi", "Tesla"]

#: Parallel must beat serial by this much at 4 workers (>= 4 cores).
SPEEDUP_BUDGET = 1.5
#: Relaxed budget when only 2-3 cores are available.
SPEEDUP_BUDGET_2CORE = 1.1
#: Serial runs must stay within this fraction of the replica loop.
OVERHEAD_BUDGET = 0.05
#: Indexed matching must beat the linear reference scan by this much.
INDEX_SPEEDUP_BUDGET = 5.0
#: ``tag_batch`` must beat the per-unit ``tag`` loop by this much.
TAG_BATCH_SPEEDUP_BUDGET = 1.3
#: Chunked dispatch must cut wire bytes per unit by this fraction
#: versus the per-unit outcome stream (measured at 2 workers).
BATCH_PAYLOAD_REDUCTION_BUDGET = 0.30


def _config(**overrides) -> PipelineConfig:
    return PipelineConfig(seed=SEED, manufacturers=SUBSET, **overrides)


def match_linear(dictionary: FailureDictionary,
                 tokens: list[str]) -> list[DictionaryEntry]:
    """The full scan the inverted index replaced: every entry tried at
    every position.  Output equals ``dictionary.match(tokens)``."""
    matches: list[DictionaryEntry] = []
    for position in range(len(tokens)):
        for entry in dictionary.entries:
            n = len(entry.phrase)
            if tuple(tokens[position:position + n]) == entry.phrase:
                matches.append(entry)
    return matches


def _replica_run(corpus, config: PipelineConfig) -> FailureDatabase:
    """The pre-parallel serial pipeline loop, reproduced inline.

    What ``process_corpus`` did before the fan-out layer existed: each
    unit computed straight into the run state — no executor, no
    journal bodies, no stage timers.  Serves as the baseline for the
    serial-overhead budget — and as a correctness witness, since its
    database must be byte-identical to the real runner's.
    """
    diagnostics = PipelineDiagnostics()
    database = FailureDatabase()
    guard = StageGuard(policy=config.resolved_policy(),
                       seed=config.seed,
                       quarantine=database.quarantine)
    diagnostics.health = guard.health
    ocr_stage = OcrStage(
        config.scanner_profile, config.correction_enabled,
        config.fallback_threshold) if config.ocr_enabled else None
    registry = default_registry()
    raw_disengagements, raw_mileage = [], []

    def read(document):
        return guard.run(
            "ocr", document.document_id,
            lambda: runner._through_ocr(document, ocr_stage, config,
                                        diagnostics.ocr))

    for document in corpus.disengagement_documents:
        try:
            lines = read(document)
            parsed = guard.run(
                "parse", document.document_id,
                lambda: registry.resolve(lines).parse(
                    lines, document.document_id),
                expected=(ParseError,))
        except (ParseError, QuarantinedError):
            continue
        if config.attach_truth:
            runner._attach_truth(document, parsed.disengagements)
        raw_disengagements.extend(parsed.disengagements)
        raw_mileage.extend(parsed.mileage)
    for document in corpus.accident_documents:
        try:
            lines = read(document)
            accident = guard.run(
                "parse", document.document_id,
                lambda: parse_accident_report(
                    lines, document.document_id),
                expected=(ParseError,))
            database.accidents.append(guard.run(
                "normalize", document.document_id,
                lambda: normalize_accident(accident)))
        except (ParseError, QuarantinedError):
            continue
    normalized, mileage, _ = normalize_records(
        raw_disengagements, raw_mileage)
    filtered, _ = filter_records(
        normalized, drop_planned=config.drop_planned)
    dictionary = guard.run(
        "dictionary", "corpus",
        lambda: runner._build_dictionary(filtered, config),
        fallback=lambda: runner._degraded_dictionary())
    tagger = VotingTagger(dictionary)
    for record in filtered:
        result = guard.run(
            "tag", runner.record_id(record),
            lambda: tagger.tag(record.description),
            fallback=runner._unknown_tag)
        record.tag = result.tag
        record.category = result.category
    if config.attach_truth:
        evaluate_tagger(None, filtered)  # scores the stored tags
    database.disengagements = filtered
    database.mileage = mileage
    return database


def _git_sha() -> str:
    """The checkout's commit, or ``unknown`` outside a git checkout."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=Path(__file__).parent,
            capture_output=True, text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return completed.stdout.strip()


def _timed(func):
    start = time.perf_counter()
    result = func()
    return result, time.perf_counter() - start


# ----------------------------------------------------------------------
# pytest-benchmark entry points (informational).
# ----------------------------------------------------------------------

def test_parallel_full_pipeline(benchmark):
    corpus = generate_corpus(SEED, SUBSET)

    def run():
        return process_corpus(corpus, _config(workers=4))

    result = benchmark(run)
    assert result.diagnostics.parallel.enabled
    assert len(result.database.disengagements) > 1000


def test_indexed_match_micro(benchmark, db):
    texts = [r.description for r in db.disengagements]
    dictionary = FailureDictionary.build(texts)
    token_lists = [cached_tokens(t) for t in texts]

    def match_all():
        for tokens in token_lists:
            dictionary.match(tokens)

    benchmark(match_all)


# ----------------------------------------------------------------------
# Self-contained report (what CI runs).
# ----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=None,
                        help="also write the measurements as JSON")
    parser.add_argument("--rounds", type=int, default=5,
                        help="pipeline timing rounds per variant "
                             "(best-of; default: %(default)s)")
    args = parser.parse_args(argv)
    cores = os.cpu_count() or 1
    report: dict = {"seed": SEED, "manufacturers": SUBSET,
                    "cpu_count": cores,
                    "python": platform.python_version(),
                    "git_sha": _git_sha()}
    failures: list[str] = []

    print(f"synthesizing seed-{SEED} corpus "
          f"({', '.join(SUBSET)}; {cores} core(s))...")
    corpus = generate_corpus(SEED, SUBSET)
    serial_result = process_corpus(corpus, _config())  # warm caches
    serial_json = serial_result.database.to_json()
    records = len(serial_result.database.disengagements)

    # -- serial overhead vs the pre-parallel replica loop -------------
    replica_db, _ = _timed(lambda: _replica_run(corpus, _config()))
    assert replica_db.to_json() == serial_json, (
        "replica loop diverged from the runner — overhead A/B void")
    serial_times, replica_times = [], []
    for _ in range(args.rounds):
        serial_times.append(
            _timed(lambda: process_corpus(corpus, _config()))[1])
        replica_times.append(
            _timed(lambda: _replica_run(corpus, _config()))[1])
    serial_wall = min(serial_times)
    replica_wall = min(replica_times)
    overhead = serial_wall / replica_wall - 1.0
    report["serial_wall_s"] = round(serial_wall, 4)
    report["replica_wall_s"] = round(replica_wall, 4)
    report["serial_overhead"] = round(overhead, 4)
    print(f"\nserial runner:    {serial_wall:.3f}s over "
          f"{records:,} records")
    print(f"replica loop:     {replica_wall:.3f}s")
    print(f"serial overhead:  {overhead:+.1%} "
          f"(budget {OVERHEAD_BUDGET:.0%})")
    if overhead > OVERHEAD_BUDGET:
        failures.append(
            f"serial overhead {overhead:+.1%} exceeds "
            f"{OVERHEAD_BUDGET:.0%}")

    # -- end-to-end speedup at 2 and 4 workers ------------------------
    report["parallel"] = {}
    for workers in (2, 4):
        best = None
        for _ in range(args.rounds):
            result, wall = _timed(
                lambda: process_corpus(corpus, _config(workers=workers)))
            assert result.database.to_json() == serial_json, (
                f"--workers {workers} output diverged from serial")
            best = wall if best is None else min(best, wall)
        speedup = serial_wall / best
        batch_sizes = dict(sorted(
            result.diagnostics.parallel.batch_size.items()))
        report["parallel"][str(workers)] = {
            "wall_s": round(best, 4), "speedup": round(speedup, 3),
            "batch_size": batch_sizes}
        sizes = ", ".join(f"{s}={n}" for s, n in batch_sizes.items())
        print(f"{workers} workers:        {best:.3f}s "
              f"({speedup:.2f}x vs serial, byte-identical; "
              f"auto batch {sizes})")

    speedup4 = report["parallel"]["4"]["speedup"]
    if cores >= 4:
        budget = SPEEDUP_BUDGET
    elif cores >= 2:
        budget = SPEEDUP_BUDGET_2CORE
    else:
        budget = None
    report["speedup_budget"] = budget
    if budget is None:
        print(f"speedup budget:   waived (single-core machine)")
    else:
        print(f"speedup budget:   >={budget:.1f}x at 4 workers "
              f"({cores} cores)")
        if speedup4 < budget:
            failures.append(
                f"4-worker speedup {speedup4:.2f}x under the "
                f"{budget:.1f}x budget on {cores} cores")

    # -- tagger hot path: inverted index vs linear reference ----------
    texts = [r.description for r in serial_result.database.disengagements]
    dictionary = FailureDictionary.build(texts)
    token_lists = [cached_tokens(t) for t in texts]
    sample = token_lists[:400]
    for tokens in sample:  # parity spot-check rides along
        assert dictionary.match(tokens) == match_linear(dictionary, tokens)

    def indexed():
        for tokens in token_lists:
            dictionary.match(tokens)

    def linear():
        for tokens in sample:
            match_linear(dictionary, tokens)

    _, indexed_s = _timed(indexed)
    _, linear_sample_s = _timed(linear)
    indexed_per = indexed_s / len(token_lists)
    linear_per = linear_sample_s / len(sample)
    index_speedup = linear_per / indexed_per
    tagger = VotingTagger(dictionary)
    _, tag_s = _timed(lambda: [tagger.tag(t) for t in texts])
    records_per_s = len(texts) / tag_s
    report["tagger"] = {
        "entries": len(dictionary),
        "indexed_us_per_record": round(indexed_per * 1e6, 2),
        "linear_us_per_record": round(linear_per * 1e6, 2),
        "index_speedup": round(index_speedup, 1),
        "records_per_s": round(records_per_s, 1),
    }
    print(f"\ntagger dictionary: {len(dictionary):,} entries over "
          f"{len(texts):,} narratives")
    print(f"  indexed match:  {indexed_per * 1e6:8.1f} us/record")
    print(f"  linear match:   {linear_per * 1e6:8.1f} us/record")
    print(f"  index speedup:  {index_speedup:8.1f}x "
          f"(budget >={INDEX_SPEEDUP_BUDGET:.0f}x)")
    print(f"  end-to-end tag: {records_per_s:8,.0f} records/s")
    if index_speedup < INDEX_SPEEDUP_BUDGET:
        failures.append(
            f"index speedup {index_speedup:.1f}x under the "
            f"{INDEX_SPEEDUP_BUDGET:.0f}x budget")

    # -- batch-native tagging vs the per-unit loop --------------------
    # ``tag_batch`` pushes the whole corpus through normalization /
    # tokenization / index matching in one pass and dedupes duplicate
    # narratives by identity; the per-unit ``tag`` loop is the
    # unchanged reference implementation.  Parity is asserted on every
    # round, so the speedup can never be bought with drift.
    per_unit_results, _ = _timed(lambda: [tagger.tag(t) for t in texts])
    per_unit_times, batch_times = [], []
    for _ in range(args.rounds):
        batch_results, wall = _timed(lambda: tagger.tag_batch(texts))
        assert batch_results == per_unit_results, (
            "tag_batch diverged from the per-unit tag loop")
        batch_times.append(wall)
        per_unit_times.append(
            _timed(lambda: [tagger.tag(t) for t in texts])[1])
    per_unit_wall = min(per_unit_times)
    batch_wall = min(batch_times)
    batch_speedup = per_unit_wall / batch_wall
    distinct = len(set(texts))
    report["tag_batch"] = {
        "narratives": len(texts),
        "distinct_narratives": distinct,
        "per_unit_wall_s": round(per_unit_wall, 4),
        "batch_wall_s": round(batch_wall, 4),
        "speedup": round(batch_speedup, 3),
        "speedup_budget": TAG_BATCH_SPEEDUP_BUDGET,
    }
    print(f"\nbatched tagging ({len(texts):,} narratives, "
          f"{distinct:,} distinct):")
    print(f"  per-unit loop:  {per_unit_wall:8.3f}s")
    print(f"  tag_batch:      {batch_wall:8.3f}s")
    print(f"  speedup:        {batch_speedup:8.2f}x "
          f"(budget >={TAG_BATCH_SPEEDUP_BUDGET:.1f}x, "
          "results asserted equal)")
    if batch_speedup < TAG_BATCH_SPEEDUP_BUDGET:
        failures.append(
            f"tag_batch speedup {batch_speedup:.2f}x under the "
            f"{TAG_BATCH_SPEEDUP_BUDGET:.1f}x budget")

    # -- worker payload size: slots/tuple pickle vs dict baseline -----
    # One Stage III outcome crosses the pool pipe per tagged record.
    # Compare the shipped encoding (__slots__ dataclass with a tuple
    # __getstate__, (stages, events) health pair) against what the
    # same outcomes cost as plain keyed dicts — the pre-compaction
    # wire shape, whose ``metrics`` slot stays as the ``None`` it
    # measured.
    outcomes = [
        UnitOutcome(
            body={"tag": r.tag.value, "category": r.category.value},
            health=({"tag": (1, 0, 0, 0, 0)}, []),
            elapsed=0.001)
        for r in serial_result.database.disengagements]
    legacy = [
        {"body": o.body,
         "health": {"stages": {k: list(v)
                               for k, v in o.health[0].items()},
                    "events": list(o.health[1])},
         "error": o.error, "ocr": o.ocr, "elapsed": o.elapsed,
         "injected": o.injected, "metrics": None}
        for o in outcomes]
    compact_bytes = sum(len(pickle.dumps(o)) for o in outcomes)
    legacy_bytes = sum(len(pickle.dumps(o)) for o in legacy)
    payload_delta = 1.0 - compact_bytes / legacy_bytes
    report["worker_payload"] = {
        "units": len(outcomes),
        "compact_bytes_per_unit": round(compact_bytes / len(outcomes), 1),
        "dict_bytes_per_unit": round(legacy_bytes / len(outcomes), 1),
        "size_reduction": round(payload_delta, 4),
    }
    print(f"\nworker payload ({len(outcomes):,} Stage III outcomes):")
    print(f"  tuple-state:    {compact_bytes / len(outcomes):8.1f} "
          "bytes/unit")
    print(f"  dict baseline:  {legacy_bytes / len(outcomes):8.1f} "
          "bytes/unit")
    print(f"  reduction:      {payload_delta:8.1%}")
    if compact_bytes >= legacy_bytes:
        failures.append(
            "compact worker payload is not smaller than the dict "
            "baseline")

    # -- chunked dispatch payload vs the per-unit stream --------------
    # The same Stage III results shipped the way the chunked engine
    # ships them: one ``BatchOutcome`` per auto-resolved chunk at 2
    # workers, carrying per-unit journal bodies but only ONE merged
    # health delta / wall time / chaos count for the whole chunk.  The
    # per-unit baseline is the ``UnitOutcome`` stream built above.
    chunk_size = resolve_batch_size(None, len(outcomes), workers=2)
    chunks = [
        BatchOutcome(
            bodies=[o.body for o in outcomes[i:i + chunk_size]],
            health=({"tag": (len(outcomes[i:i + chunk_size]),
                             0, 0, 0, 0)}, []),
            elapsed=sum(o.elapsed for o in outcomes[i:i + chunk_size]))
        for i in range(0, len(outcomes), chunk_size)]
    chunked_bytes = sum(len(pickle.dumps(c)) for c in chunks)
    chunk_delta = 1.0 - chunked_bytes / compact_bytes
    report["batched_payload"] = {
        "units": len(outcomes),
        "workers": 2,
        "batch_size": chunk_size,
        "chunk_tasks": len(chunks),
        "per_unit_bytes_per_unit": round(
            compact_bytes / len(outcomes), 1),
        "chunked_bytes_per_unit": round(
            chunked_bytes / len(outcomes), 1),
        "size_reduction": round(chunk_delta, 4),
        "reduction_budget": BATCH_PAYLOAD_REDUCTION_BUDGET,
    }
    print(f"\nchunked dispatch payload (2 workers, auto batch "
          f"{chunk_size} -> {len(chunks)} chunk tasks):")
    print(f"  per-unit:       {compact_bytes / len(outcomes):8.1f} "
          "bytes/unit")
    print(f"  chunked:        {chunked_bytes / len(outcomes):8.1f} "
          "bytes/unit")
    print(f"  reduction:      {chunk_delta:8.1%} "
          f"(budget >={BATCH_PAYLOAD_REDUCTION_BUDGET:.0%})")
    if chunk_delta < BATCH_PAYLOAD_REDUCTION_BUDGET:
        failures.append(
            f"chunked payload reduction {chunk_delta:.1%} under the "
            f"{BATCH_PAYLOAD_REDUCTION_BUDGET:.0%} budget")

    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
        print(f"\nreport written to {args.out}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("\nall budgets met.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
