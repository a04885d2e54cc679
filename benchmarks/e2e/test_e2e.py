"""Self-tests of the end-to-end benchmark.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import operator
import re
import signal
import statistics
import time
from pathlib import Path

import pytest

import harness
import layers
import ledger
import querypool
import workloads
from repro.api import (
    PipelineConfig,
    QueryEngine,
    generate_corpus,
    process_corpus,
)

SPEC = json.loads((Path(__file__).resolve().parents[2]
                   / "BENCHMARK.json").read_text())

#: Small manufacturers with accidents, so apm/dpa have valid slices.
SMALL = ["Nissan", "GMCruise"]


@pytest.fixture(scope="module")
def small_engine() -> QueryEngine:
    corpus = generate_corpus(7, SMALL)
    return QueryEngine(process_corpus(corpus, PipelineConfig(
        seed=7, ocr_enabled=False, dictionary_mode="seed")).database)


# ----------------------------------------------------------------------
# Statistics helpers.
# ----------------------------------------------------------------------

def test_percentile_interpolates_between_ranks():
    assert harness.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert harness.percentile(list(range(1, 12)), 90) == 10.0
    assert harness.percentile([3.0, 1.0, 2.0], 0) == 1.0
    assert harness.percentile([3.0, 1.0, 2.0], 100) == 3.0
    assert harness.percentile([5.0], 99.9) == 5.0
    with pytest.raises(ValueError):
        harness.percentile([], 50)


def test_median_and_quartiles_match_statistics():
    values = [9.0, 1.0, 4.0, 7.0, 3.0, 8.0]
    assert harness.median(values) == statistics.median(values)
    assert harness.quartiles(values) == tuple(
        statistics.quantiles(values, n=4))
    assert harness.quartiles([2.0]) == (2.0, 2.0, 2.0)
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert harness.spread(values) == pytest.approx((q3 - q1) / q2)


def test_setup_time_is_scaled_to_the_usual_speed():
    usual = harness.REFERENCE_S
    assert harness.at_reference_speed(3.0, usual, usual) == 3.0
    assert harness.at_reference_speed(3.0, usual * 1.4, usual * 1.6) == (
        pytest.approx(2.0))
    assert harness.reference_s() > 0


def test_stopwatch_laps_through_a_long_block():
    with harness.Stopwatch() as watch:
        ends = time.perf_counter() + 0.6
        while time.perf_counter() < ends:
            pass
    # The readings' own time is left out of the block's.
    assert len(watch.readings) >= 3
    assert 0.4 < watch.wall_s < 0.6 and watch.usual_s > 0
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# ----------------------------------------------------------------------
# Child processes.
# ----------------------------------------------------------------------

@pytest.fixture(scope="module", autouse=True)
def _stop_children():
    yield
    harness.stop_all()


def test_child_returns_value_and_peak_memory_and_reraises():
    value, peak_mb = harness.run_in_child(sum, [1, 2, 3])
    assert value == 6 and peak_mb > 0
    with pytest.raises(harness.ChildError, match="ZeroDivisionError"):
        harness.run_in_child(operator.truediv, 1, 0)
    value, _ = harness.run_in_child(sum, [4], context=harness.FORK)
    assert value == 4


def test_child_peak_memory_leaves_out_the_parents():
    _, lean_mb = harness.run_in_child(sum, [1])
    ballast = b"x" * (64 << 20)  # written, so resident here
    _, peak_mb = harness.run_in_child(sum, [1])
    assert len(ballast) and abs(peak_mb - lean_mb) < 16


# ----------------------------------------------------------------------
# The serve-filtered query pool.
# ----------------------------------------------------------------------

def test_pool_is_deterministic_valid_and_16x_the_cache(small_engine):
    pool = querypool.filtered_pool(small_engine, seed=3)
    assert len(pool) >= 16 * querypool.CACHE_SIZE
    assert pool == querypool.filtered_pool(small_engine, seed=3)
    assert pool != querypool.filtered_pool(small_engine, seed=4)
    assert len({path for path, _ in pool}) == len(pool)
    for path, digest in pool:
        query = querypool.query_of(path)
        assert query.filtered
        # Valid: the engine answers it (no 422), with the same answer.
        assert querypool.answer_digest(
            small_engine.execute(query).to_dict()) == digest


def test_pool_paths_answer_200_over_http(small_engine):
    from repro.api import QueryServer

    pool = querypool.filtered_pool(small_engine, seed=3)[:40]
    answers = dict(pool)
    with QueryServer(small_engine.db, port=0) as server:
        load = workloads.closed_loop(server.port, list(answers), 0.5, "t")
    assert load.failed == 0 and load.latencies
    for path, body in load.bodies.items():
        assert querypool.answer_digest(json.loads(body)) == answers[path]


# ----------------------------------------------------------------------
# Span accounting.
# ----------------------------------------------------------------------

def _span(span_id, parent, name, duration, kind="span"):
    return {"span_id": span_id, "parent_id": parent, "name": name,
            "kind": kind, "start_s": 0.0, "duration_s": duration,
            "status": "ok"}


def _job_trace():
    return [
        _span(1, None, "run.build.job", 10.0, kind="run"),
        _span(2, 1, "pipeline.process", 8.0),
        _span(3, 2, "ocr.document", 3.0),
        _span(4, 3, "ocr.recognize", 1.0),
        _span(5, 3, "ocr.correct", 1.5),
        _span(6, 2, "ocr.document", 2.0),
        _span(7, 6, "ocr.recognize", 1.0),
        _span(8, 2, "nlp.tag", 1.0),
        _span(9, 1, "store.save", 1.0),
    ]


def test_layer_self_times_account_for_the_job_wall_time():
    (tree,) = layers.trees(_job_trace())
    by_layer = layers.self_by_layer(tree)
    assert by_layer == pytest.approx({
        "runner": (10.0 - 8.0 - 1.0) + (8.0 - 3.0 - 2.0 - 1.0),
        "ocr": 5.0, "nlp": 1.0, "store": 1.0})
    assert sum(by_layer.values()) == pytest.approx(10.0)


def test_span_metrics_prefer_job_trees_over_setup_trees():
    (job,) = layers.trees(_job_trace())
    setup = [_span(20, None, "run.build.setup", 2.0, kind="run"),
             _span(21, 20, "synth.generate", 1.5),
             _span(22, 20, "ocr.recognize", 0.25)]
    metrics = layers.span_metrics([[job], layers.trees(setup)])
    assert metrics["ocr.recognize_s"] == pytest.approx(2.0)
    assert metrics["ocr.correct_s"] == pytest.approx(1.5)
    assert metrics["ocr.max_document_s"] == pytest.approx(3.0)
    assert metrics["synth.busy_s"] == pytest.approx(1.5)
    assert metrics["pipeline.runner_self_s"] == pytest.approx(3.0)
    assert metrics["checkpoint.busy_s"] == 0.0


def test_request_metrics_split_the_handler():
    spans = [
        _span(1, None, "server.request", 100e-6),
        _span(2, 1, "engine.execute", 60e-6),
        _span(3, 2, "engine.scope", 20e-6),
        _span(4, 2, "kernels.dpm.manufacturer", 25e-6),
        _span(5, None, "server.request", 50e-6),
    ]
    metrics = layers.request_metrics(spans)
    assert metrics["server.handler_us"] == pytest.approx(75.0)
    assert metrics["engine.execute_us"] == pytest.approx(30.0)
    assert metrics["engine.scope_us"] == pytest.approx(10.0)
    assert metrics["kernels.busy_us"] == pytest.approx(12.5)
    assert metrics["server.http_self_us"] == pytest.approx(45.0)


def test_renumbered_children_merge_into_one_trace():
    merged = (layers.renumber(_job_trace(), 0)
              + layers.renumber(_job_trace(), 9))
    assert len({span["span_id"] for span in merged}) == len(merged)
    assert [len(tree) for tree in layers.trees(merged)] == [9, 9]


def test_installed_wrappers_trace_and_uninstall_restores():
    from repro.query.engine import QueryEngine as Engine

    original = Engine.__dict__["execute"]
    traced = layers.Layers()
    traced.install()
    try:
        assert Engine.__dict__["execute"] is not original
    finally:
        traced.uninstall()
    assert Engine.__dict__["execute"] is original


# ----------------------------------------------------------------------
# --compare verdicts.
# ----------------------------------------------------------------------

def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5]
    assert ledger.verdict(steady, steady, "lower", 0.1)[0] == "within"
    assert ledger.verdict(steady, [v * 1.2 for v in steady], "lower",
                          0.1)[0] == "worse"
    assert ledger.verdict(steady, [v * 1.2 for v in steady], "higher",
                          0.1)[0] == "better"
    noisy = [60.0, 100.0, 140.0, 100.0]
    assert ledger.verdict(steady, noisy, "lower", 0.1)[0] == "unresolved"
    assert ledger.verdict(noisy, [10.0, 11.0, 12.0], "lower",
                          0.1)[0] == "better"
    assert ledger.error_verdict([0.0, 0.0], [0.0, 0.0, 0.0]) == "within"
    assert ledger.error_verdict([0.0, 0.0], [0.0, 0.001]) == "worse"
    assert ledger.error_verdict([0.01, 0.0], [0.0, 0.0]) == "better"


# ----------------------------------------------------------------------
# BENCHMARK.json against what a minimal run emits.
# ----------------------------------------------------------------------

def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in SPEC["workloads"]] == list(
        workloads.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
               for name in names)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(
        workloads.END_TO_END)
    assert [m["name"] for m in SPEC["per_layer"]] == list(layers.PER_LAYER)
    assert all(m["bound"] == 0.1 for m in SPEC["end_to_end"])


def test_every_layer_metric_names_what_it_should_move():
    moved = {m["name"] for m in SPEC["end_to_end"]} | set(layers.OP_METRICS)
    names = {w["name"] for w in SPEC["workloads"]}
    unmapped = set(layers.PER_LAYER) - set(layers.MOVES)
    assert unmapped == {*layers.OP_METRICS, "trace.overhead_pct"}
    assert set(layers.MOVES) <= set(layers.PER_LAYER)
    for targets in layers.MOVES.values():
        assert targets
        assert all(metric in moved and workload in names
                   for metric, workload in targets)


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_minimal_run_emits_exactly_the_declared_metrics(
        name, traced, tmp_path):
    inputs = workloads.Inputs(7, tuple(SMALL))
    run = workloads.run_workload(name, inputs, 0.5, traced, tmp_path)
    assert run.correct, run.problems
    assert run.attempted >= 1
    declared = SPEC["per_layer" if traced else "end_to_end"]
    emitted = run.layers if traced else run.end_to_end()
    assert set(emitted) == {metric["name"] for metric in declared}
    if not traced:
        assert all(value > 0 for value in emitted.values())
