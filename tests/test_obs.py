"""Tests for the observability layer: tracing, metrics, exposition.

The load-bearing contract is at the bottom: with tracing and metrics
fully enabled the pipeline's output must stay byte-identical to an
uninstrumented run, and with observability disabled the hot path must
be a true no-op (the null tracer/registry, not a cheap real one).
"""

from __future__ import annotations

import threading
import urllib.error
import urllib.request

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    DEGRADATIONS_TOTAL,
    HTTP_LATENCY,
    HTTP_REQUESTS,
    INDEX_RECORDS,
    OCR_FALLBACK_PAGES,
    QUARANTINED_TOTAL,
    QUERY_CACHE_HITS,
    STAGE_DURATION,
    STAGE_ERRORS_TOTAL,
    TOKEN_CACHE_HITS,
    UNITS_TOTAL,
    UNPARSED_LINES,
    MetricsRegistry,
    default_registry,
)
from repro.obs.runtime import Observability
from repro.obs.trace import NULL_TRACER, Tracer, load_trace, self_times
from repro.pipeline.chaos import CrashPoint, SimulatedCrash
from repro.pipeline.config import PipelineConfig
from repro.pipeline.runner import process_corpus
from repro.pipeline.stages import render_metrics
from repro.query.server import QueryServer
from repro.synth.dataset import generate_corpus

from .faults import inject

THREADS = 8
STAGES = {"parse-documents", "accident-documents", "normalize",
          "dictionary", "tag", "evaluate"}


@pytest.fixture(scope="module")
def traced_run(small_corpus, tmp_path_factory):
    """A fully instrumented small run plus its trace file."""
    trace_dir = tmp_path_factory.mktemp("trace")
    config = PipelineConfig(seed=7, ocr_enabled=False,
                            dictionary_mode="seed",
                            trace_dir=trace_dir, metrics_enabled=True)
    result = process_corpus(small_corpus, config)
    return result, trace_dir / "trace.jsonl"


class TestTracer:
    def test_spans_nest_and_times_are_monotonic(self, tmp_path):
        tracer = Tracer(tmp_path / "t.jsonl")
        with tracer.span("run", kind="run"):
            with tracer.span("stage-a", kind="stage"):
                with tracer.span("unit-1", kind="unit"):
                    pass
            with tracer.span("stage-b", kind="stage"):
                pass
        tracer.close()
        spans = {s["name"]: s for s in load_trace(tmp_path / "t.jsonl")}
        assert spans["stage-a"]["parent_id"] == spans["run"]["span_id"]
        assert spans["stage-b"]["parent_id"] == spans["run"]["span_id"]
        assert (spans["unit-1"]["parent_id"]
                == spans["stage-a"]["span_id"])
        for span in spans.values():
            assert span["duration_s"] >= 0.0
            assert span["status"] == "ok"
        # A child starts no earlier and ends no later than its parent.
        for child, parent in (("stage-a", "run"), ("unit-1", "stage-a"),
                              ("stage-b", "run")):
            assert (spans[child]["start_s"]
                    >= spans[parent]["start_s"])
            assert (spans[child]["start_s"]
                    + spans[child]["duration_s"]
                    <= spans[parent]["start_s"]
                    + spans[parent]["duration_s"] + 1e-6)

    def test_exception_marks_span_error_and_propagates(self, tmp_path):
        tracer = Tracer(tmp_path / "t.jsonl")
        with pytest.raises(RuntimeError):
            with tracer.span("run", kind="run"):
                with tracer.span("boom", kind="stage"):
                    raise RuntimeError("x")
        tracer.close()
        spans = {s["name"]: s for s in load_trace(tmp_path / "t.jsonl")}
        assert spans["boom"]["status"] == "error"
        assert spans["run"]["status"] == "error"

    def test_partial_file_is_valid_jsonl(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = Tracer(path)
        with tracer.span("run", kind="run"):
            with tracer.span("stage-a", kind="stage"):
                pass
            tracer.flush()
            # A crash here leaves the flushed prefix on disk: every
            # line parses even though the run span never closed.
            assert [s["name"] for s in load_trace(path)] == ["stage-a"]

    def test_load_trace_skips_garbage_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = Tracer(path)
        with tracer.span("run", kind="run"):
            pass
        tracer.close()
        valid = path.read_bytes()
        for garbage in (b"{not json\n",
                        # Span fields of a type the tracer never writes.
                        b'{"span_id": 1, "duration_s": "x"}\n',
                        b'{"span_id": 1, "parent_id": [1]}\n',
                        b'{"span_id": true}\n',
                        b"\xff\xfe not UTF-8\n"):
            path.write_bytes(valid + garbage)
            spans = load_trace(path)
            assert [s["name"] for s in spans] == ["run"], garbage
            assert [row["name"] for row in self_times(spans)] == ["run"]

    def test_self_times_subtracts_children(self, tmp_path):
        spans = [
            {"span_id": 1, "parent_id": None, "name": "run",
             "kind": "run", "start_s": 0.0, "duration_s": 10.0,
             "status": "ok"},
            {"span_id": 2, "parent_id": 1, "name": "tag",
             "kind": "stage", "start_s": 1.0, "duration_s": 8.0,
             "status": "ok"},
            {"span_id": 3, "parent_id": 2, "name": "u1",
             "kind": "unit", "start_s": 1.0, "duration_s": 3.0,
             "status": "ok", "attrs": {"stage": "tag"}},
            {"span_id": 4, "parent_id": 2, "name": "u2",
             "kind": "unit", "start_s": 4.0, "duration_s": 3.0,
             "status": "error", "attrs": {"stage": "tag"}},
        ]
        rows = {r["name"]: r for r in self_times(spans)}
        assert rows["run"]["self_s"] == pytest.approx(2.0)
        assert rows["tag"]["self_s"] == pytest.approx(2.0)
        assert rows["tag units"]["count"] == 2
        assert rows["tag units"]["total_s"] == pytest.approx(6.0)
        assert rows["tag units"]["errors"] == 1
        # Hottest-first ordering by self time.
        names = [r["name"] for r in self_times(spans)]
        assert names[0] == "tag units"


class TestMetricsRegistry:
    def test_counter_gauge_histogram_roundtrip(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "help", ("stage",))
        counter.labels("tag").inc(3)
        gauge = registry.gauge("g")
        gauge.set(1.5)
        histogram = registry.histogram("h_seconds",
                                       buckets=(0.1, 1.0))
        histogram.observe(0.05)
        histogram.observe(5.0)
        snapshot = registry.to_dict()
        assert snapshot["c_total"]["series"][0] == {
            "labels": {"stage": "tag"}, "value": 3}
        assert snapshot["g"]["series"][0]["value"] == 1.5
        series = snapshot["h_seconds"]["series"][0]
        assert series["count"] == 2
        assert series["sum"] == pytest.approx(5.05)
        assert series["buckets"] == [1, 0]  # 5.0 only in +Inf

    def test_conflicting_registration_rejected(self):
        registry = MetricsRegistry()
        registry.counter("m")
        registry.counter("m")  # idempotent
        with pytest.raises(ValueError):
            registry.gauge("m")

    def test_thread_safety_under_contention(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", labelnames=("worker",))
        histogram = registry.histogram("h_seconds")
        rounds = 2_000

        def hammer(worker: int) -> None:
            series = counter.labels(str(worker))
            for i in range(rounds):
                series.inc()
                counter.labels("shared").inc()
                histogram.observe(i / rounds)

        threads = [threading.Thread(target=hammer, args=(t,))
                   for t in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        snapshot = registry.to_dict()
        values = {tuple(s["labels"].values()): s["value"]
                  for s in snapshot["c_total"]["series"]}
        assert values[("shared",)] == THREADS * rounds
        for worker in range(THREADS):
            assert values[(str(worker),)] == rounds
        assert (snapshot["h_seconds"]["series"][0]["count"]
                == THREADS * rounds)

    def test_merge_adds_counters_and_buckets(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for registry in (a, b):
            registry.counter("c_total", labelnames=("stage",))
            registry.histogram("h_seconds", buckets=(1.0,))
        a.get("c_total").labels("tag").inc(2)
        b.get("c_total").labels("tag").inc(3)
        b.get("c_total").labels("parse").inc(1)
        a.get("h_seconds").observe(0.5)
        b.get("h_seconds").observe(2.0)
        a.merge(b.dump())
        snapshot = a.to_dict()
        values = {s["labels"]["stage"]: s["value"]
                  for s in snapshot["c_total"]["series"]}
        assert values == {"tag": 5, "parse": 1}
        series = snapshot["h_seconds"]["series"][0]
        assert series["count"] == 2
        assert series["sum"] == pytest.approx(2.5)

    def test_dump_survives_pickling(self):
        import pickle

        registry = MetricsRegistry()
        registry.counter("c_total", labelnames=("stage",)).labels(
            "tag").inc()
        dump = pickle.loads(pickle.dumps(registry.dump()))
        other = MetricsRegistry()
        other.counter("c_total", labelnames=("stage",))
        other.merge(dump)
        assert (other.to_dict()["c_total"]["series"][0]["value"] == 1)

    def test_prometheus_rendering(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "a counter",
                         ("stage",)).labels("tag").inc(2)
        registry.histogram("h_seconds",
                           buckets=(0.1, 1.0)).observe(0.5)
        text = registry.render_prometheus()
        assert "# TYPE c_total counter" in text
        assert 'c_total{stage="tag"} 2' in text
        assert 'h_seconds_bucket{le="1.0"} 1' in text
        assert 'h_seconds_bucket{le="+Inf"} 1' in text
        assert "h_seconds_count 1" in text


class TestPipelineInstrumentation:
    def test_trace_covers_every_stage_and_unit(self, traced_run,
                                               small_corpus):
        result, trace_path = traced_run
        spans = load_trace(trace_path)
        by_kind: dict[str, list[dict]] = {}
        for span in spans:
            by_kind.setdefault(span["kind"], []).append(span)
        assert len(by_kind["run"]) == 1
        assert {s["name"] for s in by_kind["stage"]} == STAGES
        unit_stages = {s["attrs"]["stage"] for s in by_kind["unit"]}
        assert unit_stages == {"parse-documents",
                               "accident-documents", "tag"}
        tagged = [s for s in by_kind["unit"]
                  if s["attrs"]["stage"] == "tag"]
        assert len(tagged) == len(result.database.disengagements)

    def test_unit_spans_time_their_own_work(self, tmp_path):
        # Each computed unit's span covers that unit's own work, so a
        # trace can say which document was slow.
        corpus = generate_corpus(seed=5, manufacturers=["Nissan"])
        process_corpus(corpus, PipelineConfig(
            seed=5, manufacturers=["Nissan"], ocr_enabled=False,
            dictionary_mode="seed", trace_dir=tmp_path))
        spans = load_trace(tmp_path / "trace.jsonl")
        (stage,) = [s for s in spans if s["kind"] == "stage"
                    and s["name"] == "parse-documents"]
        units = [s for s in spans if s["kind"] == "unit"
                 and s["attrs"]["stage"] == "parse-documents"]
        assert len(units) == len(corpus.disengagement_documents)
        assert all(s["duration_s"] > 0 for s in units)
        assert all(s["parent_id"] == stage["span_id"] for s in units)
        assert sum(s["duration_s"] for s in units) <= stage["duration_s"]

    def test_metrics_snapshot_on_diagnostics(self, traced_run):
        result, _ = traced_run
        metrics = result.diagnostics.metrics
        assert metrics is not None
        durations = {s["labels"]["stage"]: s
                     for s in metrics[STAGE_DURATION]["series"]}
        assert set(durations) == STAGES
        assert all(s["count"] == 1 for s in durations.values())
        units = {s["labels"]["stage"]: s["value"]
                 for s in metrics[UNITS_TOTAL]["series"]}
        assert units["tag"] == len(result.database.disengagements)
        hits = metrics[TOKEN_CACHE_HITS]["series"]
        assert hits and hits[0]["value"] > 0

    def test_instrumented_output_is_byte_identical(self, traced_run,
                                                   small_corpus):
        result, _ = traced_run
        plain = process_corpus(
            small_corpus, PipelineConfig(seed=7, ocr_enabled=False,
                                         dictionary_mode="seed"))
        assert plain.database.to_json() == result.database.to_json()

    def test_disabled_mode_is_a_true_noop(self, small_corpus):
        config = PipelineConfig(seed=7, ocr_enabled=False,
                                dictionary_mode="seed")
        obs = Observability.for_run(config)
        assert not obs.active
        assert obs.tracer is NULL_TRACER
        span = obs.tracer.span("run")
        with span:
            pass
        assert obs.tracer.span("again") is span  # shared null object
        result = process_corpus(small_corpus, config)
        assert result.diagnostics.metrics is None
        assert result.diagnostics.trace_path is None

    def test_resumed_chaos_run_metrics_equal_health(self, tmp_path):
        # The pre-crash run quarantines a parse unit; the resume
        # restores that verdict, and its metrics must count it exactly
        # as its health summary does.
        corpus = generate_corpus(seed=5, manufacturers=["Nissan"])
        config = dict(seed=5, ocr_enabled=False, dictionary_mode="seed",
                      checkpoint_dir=tmp_path)
        with inject("parse", 0.3, 5):
            with pytest.raises(SimulatedCrash):
                process_corpus(corpus, PipelineConfig(
                    **config, crash=CrashPoint(at="mid-tag")))
            resumed = process_corpus(corpus, PipelineConfig(
                **config, resume=True, metrics_enabled=True))
        diagnostics = resumed.diagnostics
        assert diagnostics.health.stages["parse"].quarantined == 1
        for name, counter in ((STAGE_ERRORS_TOTAL, "errors"),
                              (DEGRADATIONS_TOTAL, "degradations"),
                              (QUARANTINED_TOTAL, "quarantined")):
            series = {s["labels"]["stage"]: s["value"]
                      for s in diagnostics.metrics[name]["series"]}
            assert series == {
                stage: getattr(health, counter)
                for stage, health in diagnostics.health.stages.items()
                if getattr(health, counter)}, name

    def test_data_quality_counters(self, pipeline_result):
        diagnostics = pipeline_result.diagnostics
        metrics = render_metrics(diagnostics).to_dict()
        values = {name: [s["value"] for s in metrics[name]["series"]]
                  for name in (OCR_FALLBACK_PAGES, UNPARSED_LINES)}
        # Seed 2018: seven pages sent to manual transcription and 21
        # lines no parser rule matched.
        assert values == {OCR_FALLBACK_PAGES: [7], UNPARSED_LINES: [21]}
        assert diagnostics.ocr.fallback_pages == 7
        assert diagnostics.parse.unparsed_lines == 21


class TestExposition:
    def test_metrics_endpoint_parses_with_stable_names(self, small_db):
        registry = MetricsRegistry()
        with QueryServer(small_db, port=0,
                         registry=registry) as server:
            for path in ("/v1/query?metric=dpm", "/v1/query?metric=dpm",
                         "/nope"):
                try:
                    urllib.request.urlopen(server.url + path,
                                           timeout=10).read()
                except urllib.error.HTTPError:
                    pass
            response = urllib.request.urlopen(
                server.url + "/metrics", timeout=10)
            assert response.headers["Content-Type"].startswith(
                "text/plain")
            text = response.read().decode()
        families: dict[str, str] = {}
        for line in text.splitlines():
            assert line, "blank line in exposition"
            if line.startswith("# TYPE"):
                _, _, name, kind = line.split()
                families[name] = kind
            elif not line.startswith("#"):
                name, _, value = line.rpartition(" ")
                float(value)  # every sample value parses
                assert name.split("{")[0]
        assert families[HTTP_REQUESTS] == "counter"
        assert families[HTTP_LATENCY] == "histogram"
        assert families[QUERY_CACHE_HITS] == "gauge"
        assert families[INDEX_RECORDS] == "gauge"
        assert (f'{HTTP_REQUESTS}{{route="/v1/query",status="200"}} 2'
                in text)
        assert 'route="<unknown>"' in text  # 404s fold into one label
        buckets = [l for l in text.splitlines()
                   if l.startswith(f"{HTTP_LATENCY}_bucket")
                   and 'route="/v1/query"' in l]
        assert len(buckets) == len(DEFAULT_BUCKETS) + 1  # +Inf

    def test_request_is_counted_before_its_answer_is_read(self, small_db):
        registry = MetricsRegistry()
        with QueryServer(small_db, port=0, registry=registry) as server:
            requests = registry.get(HTTP_REQUESTS)
            for count in range(1, 51):
                urllib.request.urlopen(server.url + "/v1/healthz",
                                       timeout=10).read()
                assert requests.labels("/v1/healthz", "200").value == count

    def test_default_registry_is_shared(self):
        assert default_registry() is default_registry()
