"""Serial stage-loop overhead and tagger hot-path benchmarks.

Three budgets guard this perf work:

1. **Serial overhead** — the runner must stay within 5% of a bare
   replica of the same serial loop (journal bodies, stage timers and
   restore bookkeeping may not tax a run that uses none of them).
   Each side is timed in CPU time (``time.process_time``) over
   :data:`ROUNDS` rounds that alternate which side runs first, and
   the two minima are compared: wall-clock time on a shared box moves
   by more than the budget between identical runs.  The replica's
   database is asserted byte-identical to the runner's, so the
   comparison can never be bought with drift.
2. **Tagger index** — the trie matcher must beat the
   :func:`match_linear` reference scan by >= 5x per record.
3. **Batched tagging** — ``tag_batch`` over the whole corpus must beat
   the per-unit ``tag`` loop by >= 1.3x (one normalization/tokenize
   pass through the shared cache, one match and vote per distinct
   token sequence), with results asserted equal element-by-element.

Run as a script (``python benchmarks/bench_parallel.py``) for the
self-contained report CI runs; ``--out`` additionally writes the
measurements as JSON (the committed ``BENCH_pipeline.json`` baseline
is a snapshot of that report).
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from repro.errors import ParseError, QuarantinedError
from repro.nlp.dictionary import DictionaryEntry, FailureDictionary
from repro.nlp.evaluation import evaluate_tagger
from repro.nlp.tagger import VotingTagger
from repro.nlp.textcache import cached_tokens
from repro.parsing.accidents import parse_accident_report
from repro.parsing.base import default_registry
from repro.parsing.filters import filter_records
from repro.parsing.normalize import normalize_accident, normalize_records
from repro.pipeline import runner
from repro.pipeline.config import PipelineConfig
from repro.pipeline.resilience import StageGuard
from repro.pipeline.runner import process_corpus
from repro.pipeline.stages import OcrStage, PipelineDiagnostics
from repro.pipeline.store import FailureDatabase
from repro.synth.dataset import generate_corpus

from runinfo import run_header

SEED = 2018
SUBSET = ["Nissan", "Volkswagen", "Delphi", "Tesla"]

#: Serial runs must stay within this fraction of the replica loop.
OVERHEAD_BUDGET = 0.05
#: Timing rounds per variant (best-of).
ROUNDS = 20
#: Indexed matching must beat the linear reference scan by this much.
INDEX_SPEEDUP_BUDGET = 5.0
#: ``tag_batch`` must beat the per-unit ``tag`` loop by this much.
TAG_BATCH_SPEEDUP_BUDGET = 1.3


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
    """A bare serial pipeline loop, reproduced inline.

    Each unit computed straight into the run state — no restore
    bookkeeping, no journal bodies, no stage timers.  Serves as the
    baseline for the serial-overhead budget — and as a correctness
    witness, since its database must be byte-identical to the real
    runner's.
    """
    diagnostics = PipelineDiagnostics()
    database = FailureDatabase()
    guard = StageGuard(policy=config.resolved_policy(),
                       quarantine=database.quarantine)
    diagnostics.health = guard.health
    ocr_stage = (OcrStage(config.correction_enabled)
                 if config.ocr_enabled else None)
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
    # One tag_batch call, then each record adopts its result, as the
    # runner's Stage III does.
    tagged = VotingTagger(dictionary).tag_batch(
        [record.description for record in filtered])
    for record, result in zip(filtered, tagged):
        record.tag = result.tag
        record.category = result.category
    evaluate_tagger(None, filtered)  # scores the stored tags
    database.disengagements = filtered
    database.mileage = mileage
    return database


def _timed(func):
    start = time.perf_counter()
    result = func()
    return result, time.perf_counter() - start


def _cpu_time(func) -> float:
    start = time.process_time()
    func()
    return time.process_time() - start


# ----------------------------------------------------------------------
# pytest-benchmark entry points (informational).
# ----------------------------------------------------------------------

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
    args = parser.parse_args(argv)
    report: dict = {"seed": SEED, "manufacturers": SUBSET, **run_header()}
    cores = report["cpu_count"]
    failures: list[str] = []

    print(f"synthesizing seed-{SEED} corpus "
          f"({', '.join(SUBSET)}; {cores} core(s))...")
    corpus = generate_corpus(SEED, SUBSET)
    serial_result = process_corpus(corpus, _config())  # warm caches
    serial_json = serial_result.database.to_json()
    records = len(serial_result.database.disengagements)

    # -- serial overhead vs the replica loop ---------------------------
    replica_db, _ = _timed(lambda: _replica_run(corpus, _config()))
    assert replica_db.to_json() == serial_json, (
        "replica loop diverged from the runner — overhead A/B void")
    serial_times, replica_times = [], []
    for round_index in range(ROUNDS):
        sides = [(serial_times, lambda: process_corpus(corpus, _config())),
                 (replica_times, lambda: _replica_run(corpus, _config()))]
        if round_index % 2:
            sides.reverse()
        for times, run in sides:
            times.append(_cpu_time(run))
    serial_cpu = min(serial_times)
    replica_cpu = min(replica_times)
    overhead = serial_cpu / replica_cpu - 1.0
    report["serial_cpu_s"] = round(serial_cpu, 4)
    report["replica_cpu_s"] = round(replica_cpu, 4)
    report["serial_overhead"] = round(overhead, 4)
    print(f"\nserial runner:    {serial_cpu:.3f} CPU s over "
          f"{records:,} records (best of {ROUNDS})")
    print(f"replica loop:     {replica_cpu:.3f} CPU s")
    print(f"serial overhead:  {overhead:+.1%} "
          f"(budget {OVERHEAD_BUDGET:.0%})")
    if overhead > OVERHEAD_BUDGET:
        failures.append(
            f"serial overhead {overhead:+.1%} exceeds "
            f"{OVERHEAD_BUDGET:.0%}")

    # -- tagger hot path: phrase trie vs linear reference -------------
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
    for _ in range(ROUNDS):
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
