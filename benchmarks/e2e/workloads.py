"""The four workloads of the end-to-end benchmark, and their checks.

Process model: each set-up and each timed repetition runs in a child
started from a fork server that has only imported ``repro`` (or forked
from a child that did nothing but synthesize the corpus, and whose
token cache is checked to be empty), so memo caches start cold.  Work
is serial and every config is the default one.  A serving workload
runs one single-process ``QueryServer`` in its own child, with the
default monolithic index and 256-entry result cache; the load comes
from this process: a closed loop of 2 threads, each with its own
keep-alive connection, because the server's clients (notebooks,
dashboards) each wait for a reply before sending the next request.

Each set-up is timed inside its child by a :class:`harness.Stopwatch`,
and ``setup_s`` is that time at the box's usual speed: on a shared host
the same work takes up to 1.7x longer, in stretches of a few seconds to
minutes.
"""

from __future__ import annotations

import http.client
import json
import random
import shutil
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.api import (
    PipelineConfig,
    QueryEngine,
    QueryServer,
    SyntheticCorpus,
    generate_corpus,
    ingest_corpus,
    load_database,
    process_corpus,
)
from repro.nlp import token_cache

from harness import (
    FORK,
    Child,
    ChildError,
    Stopwatch,
    median,
    percentile,
    run_in_child,
    send_up,
)
from layers import (
    PER_LAYER,
    accounting,
    open_layers,
    renumber,
    request_metrics,
    span_metrics,
    trees,
)
from querypool import answer_digest, filtered_pool, hot_answers

WORKLOADS = ("build", "ingest", "serve-hot", "serve-filtered")

#: End-to-end metrics, in report order.  Operation latency and
#: throughput are measured on every run too, but on a shared 2-core box
#: they drift 10-20% between runs, so they are the per-layer ``op.*``
#: metrics: reported, never gated (see README.md).
END_TO_END = ("setup_s", "peak_rss_mb")

#: Set-ups per run, by workload kind; ``setup_s`` is their median.
#: The cheap ones are repeated more, as short timings jitter more.
SETUPS = {"build": 7, "ingest": 3, "serve": 15}
#: Timed repetitions a batch workload makes however short the run.
MIN_REPS = 2
#: Closed-loop warm-up before a serving measurement.
WARMUP_S = 2.0
CLIENT_THREADS = 2
#: Every DELTA_EVERY-th document is the ``ingest`` workload's new drop.
DELTA_EVERY = 10
#: Seed -> (disengagements, accidents) the paper's corpus must give.
CANONICAL = {2018: (5324, 42)}


@dataclass(frozen=True)
class Inputs:
    """What every input of a run is generated from."""

    seed: int
    #: The manufacturers to synthesize; ``None`` is all of them, the
    #: paper's corpus.  The self-tests use a small subset.
    manufacturers: tuple[str, ...] | None = None

    def corpus(self) -> SyntheticCorpus:
        return generate_corpus(self.seed, None if self.manufacturers is None
                               else list(self.manufacturers))

    @property
    def canonical(self) -> tuple[int, int] | None:
        """(disengagements, accidents) the database must have, if known."""
        return (CANONICAL.get(self.seed) if self.manufacturers is None
                else None)


@dataclass
class Run:
    """What one run of one workload measured and checked."""

    workload: str
    inputs: Inputs
    seconds: float
    traced: bool
    workdir: Path
    #: Set-up seconds at the box's usual speed, and as the clock read.
    setup_s: list[float] = field(default_factory=list)
    setup_wall_s: list[float] = field(default_factory=list)
    #: Seconds per completed operation (one job, or one request).
    op_s: list[float] = field(default_factory=list)
    #: Completed operations per second.
    throughput: float = 0.0
    peak_rss_mb: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    extra: dict[str, Any] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    report: list[str] = field(default_factory=list)
    spans: list[dict[str, Any]] = field(default_factory=list)
    trees: list[list[dict[str, Any]]] = field(default_factory=list)

    @property
    def seed(self) -> int:
        return self.inputs.seed

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def add_setup(self, reading: tuple[float, float]) -> None:
        """One set-up's :attr:`Stopwatch.reading`."""
        wall_s, usual_s = reading
        self.setup_wall_s.append(wall_s)
        self.setup_s.append(usual_s)

    def check(self, ok: bool, problem: str) -> bool:
        """Count a failed output check as a failed operation."""
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)
        return ok

    def add_spans(self, spans: list[dict[str, Any]]) -> None:
        """Merge one child's spans into the run's trace."""
        self.trees.extend(trees(spans))
        offset = max((span["span_id"] for span in self.spans), default=0)
        self.spans.extend(renumber(spans, offset))

    def end_to_end(self) -> dict[str, float]:
        return {"setup_s": median(self.setup_s),
                "peak_rss_mb": median(self.peak_rss_mb)}

    def samples(self) -> dict[str, int]:
        return {"setup_s": len(self.setup_s),
                "peak_rss_mb": len(self.peak_rss_mb)}

    def op_metrics(self) -> dict[str, float]:
        """Latency and throughput of the untraced operations."""
        return {"op.p50_ms": median(self.op_s) * 1e3,
                "op.p90_ms": percentile(self.op_s, 90.0) * 1e3,
                "op.throughput": self.throughput}


def run_workload(name: str, inputs: Inputs, seconds: float, traced: bool,
                 workdir: Path) -> Run:
    run = Run(name, inputs, seconds, traced, workdir)
    if name == "build":
        _run_build(run)
    elif name == "ingest":
        _run_ingest(run)
    elif name in ("serve-hot", "serve-filtered"):
        _run_serve(run, name.split("-", 1)[1])
    else:
        raise ValueError(f"unknown workload {name!r}")
    if not run.traced:
        run.extra.update(run.op_metrics())
        run.extra["op.samples"] = len(run.op_s)
    if run.setup_wall_s:
        run.extra["setup_wall_s"] = median(run.setup_wall_s)
    run.extra["error_rate"] = run.failed / max(run.attempted, 1)
    return run


# ----------------------------------------------------------------------
# Shared pieces of the batch workloads.
# ----------------------------------------------------------------------

def _require_cold_cache() -> None:
    stats = token_cache().stats()
    if stats["hits"] or stats["misses"] or stats["size"]:
        raise RuntimeError(f"token cache is not cold: {stats}")


def _counts(diagnostics: Any) -> dict[str, float]:
    """Work counts of one job, from the pipeline's own diagnostics."""
    cache = token_cache().stats()
    lookups = cache["hits"] + cache["misses"]
    parse = diagnostics.parse
    return {
        "ocr.lines": diagnostics.ocr.lines,
        "ocr.fallback_pages": diagnostics.ocr.fallback_pages,
        "parsing.records": (parse.disengagements_parsed
                            + parse.accidents_parsed),
        "parsing.unparsed_lines": parse.unparsed_lines,
        "nlp.dictionary_entries": diagnostics.dictionary_entries,
        "nlp.token_cache_hit_ratio": (cache["hits"] / lookups
                                      if lookups else 0.0),
    }


def _split(count: int) -> tuple[int, int]:
    """How many of ``count`` set-ups run before the measured window and
    how many after it.  This box's speed shifts for tens of seconds at
    a time, so a median over set-ups spread across the whole run
    repeats better than one over a burst at its start."""
    before = count // 2 + 1
    return before, count - before


def _repeat(job: Callable[[int, bool], tuple[dict, float]],
            seconds: float, traced: bool) -> list[dict[str, Any]]:
    """Timed repetitions until ``seconds`` have passed.

    A traced run alternates untraced and traced repetitions, so the
    two can be compared for the tracing overhead.
    """
    results: list[dict[str, Any]] = []
    started = time.perf_counter()
    while (len(results) < MIN_REPS
           or time.perf_counter() - started < seconds):
        traced_rep = traced and len(results) % 2 == 1
        try:
            value, peak_mb = job(len(results), traced_rep)
            value["peak_rss_mb"] = peak_mb
        except ChildError as exc:
            value = {"error": str(exc)}
        value["traced"] = traced_rep
        results.append(value)
    return results


def _adopt(run: Run, reps: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Fold repetitions into the run; returns the ones that completed."""
    done = []
    for rep in reps:
        run.attempted += 1
        if not run.check("error" not in rep,
                         f"repetition raised: {rep.get('error')}"):
            continue
        done.append(rep)
        if rep["traced"]:
            run.add_spans(rep.pop("spans"))
        else:
            run.op_s.append(rep["op_s"])
            run.peak_rss_mb.append(rep["peak_rss_mb"])
    if not run.op_s:
        raise RuntimeError(f"no untraced repetition completed: "
                           f"{run.problems}")
    run.throughput = len(run.op_s) / sum(run.op_s)
    return done


def _batch_layers(run: Run, done: list[dict[str, Any]]) -> None:
    """Per-layer metrics of a traced batch run."""
    traced = [rep for rep in done if rep["traced"]]
    values = dict.fromkeys(PER_LAYER, 0.0)
    jobs = [tree for tree in run.trees if tree[0]["name"].endswith(".job")]
    setups = [tree for tree in run.trees
              if tree[0]["name"].endswith(".setup")]
    values.update(span_metrics([jobs, setups]))
    for key in traced[0]["counts"] if traced else ():
        values[key] = median([rep["counts"][key] for rep in traced])
    values.update(run.op_metrics())
    timed = [rep["op_s"] for rep in traced]
    if run.op_s and timed:
        values["trace.overhead_pct"] = (median(timed) / median(run.op_s)
                                        - 1.0) * 100.0
    run.layers = values
    run.report.append(f"  traced job accounting ({run.workload}):")
    run.report.extend(accounting(jobs))


# ----------------------------------------------------------------------
# build: a new data drop, from raw reports to a ready query engine.
# ----------------------------------------------------------------------

def _build_setup(inputs: Inputs, traced: bool) -> dict[str, Any]:
    layers = open_layers(traced)
    with Stopwatch(laps=not traced) as watch:
        with layers.span("run.build.setup", "run"):
            with layers.span("synth.generate"):
                inputs.corpus()
    return {"setup": watch.reading, "spans": layers.spans()}


def _build_job(corpus: SyntheticCorpus, seed: int, db_path: Path,
               traced: bool) -> dict[str, Any]:
    _require_cold_cache()
    layers = open_layers(traced)
    started = time.perf_counter()
    with layers.span("run.build.job", "run"):
        with layers.span("pipeline.process"):
            result = process_corpus(corpus, PipelineConfig(seed=seed))
        result.database.save(db_path)
        with layers.span("store.load"):
            db = load_database(db_path)
        with layers.span("query.engine"):
            engine = QueryEngine(db)
    op_s = time.perf_counter() - started
    return {
        "op_s": op_s,
        "fingerprint": engine.fingerprint,
        "built": result.database.fingerprint(),
        "sizes": (len(db.disengagements), len(db.accidents)),
        "counts": {**_counts(result.diagnostics),
                   "store.bytes": db_path.stat().st_size},
        "spans": layers.spans(),
    }


def _build_holder(_connection: Any, inputs: Inputs, seconds: float,
                  traced: bool, workdir: Path) -> list[dict[str, Any]]:
    corpus = inputs.corpus()

    def job(index: int, traced_rep: bool) -> tuple[dict, float]:
        db_path = workdir / f"build-{index}.json"
        try:
            return run_in_child(_build_job, corpus, inputs.seed, db_path,
                                traced_rep, context=FORK)
        finally:
            db_path.unlink(missing_ok=True)
            db_path.with_name(db_path.name + ".sha256").unlink(
                missing_ok=True)

    return _repeat(job, seconds, traced)


def _run_build(run: Run) -> None:
    before, after = _split(SETUPS["build"])

    def setup() -> None:
        value, _ = run_in_child(_build_setup, run.inputs, run.traced)
        run.add_setup(value["setup"])
        run.add_spans(value["spans"])

    for _ in range(before):
        setup()
    reps, _ = Child(_build_holder, run.inputs, run.seconds, run.traced,
                    run.workdir).finish()
    for _ in range(after):
        setup()
    done = _adopt(run, reps)
    usual = Counter(rep["fingerprint"] for rep in done).most_common(1)
    expected = run.inputs.canonical
    for rep in done:
        run.check(rep["fingerprint"] == rep["built"],
                  "saving and loading changed the database fingerprint")
        run.check(rep["fingerprint"] == usual[0][0],
                  "the database fingerprint differs between repetitions")
        if expected is not None:
            run.check(tuple(rep["sizes"]) == expected,
                      f"seed {run.seed} gave {rep['sizes']} "
                      f"(disengagements, accidents), expected {expected}")
    run.extra["fingerprint"] = usual[0][0] if usual else None
    if run.traced:
        _batch_layers(run, done)


# ----------------------------------------------------------------------
# ingest: the same drop arriving as a delta against a checkpoint dir.
# ----------------------------------------------------------------------

def _base_of(corpus: SyntheticCorpus) -> SyntheticCorpus:
    """The corpus minus every DELTA_EVERY-th document."""
    return SyntheticCorpus(seed=corpus.seed, documents=[
        document for index, document in enumerate(corpus.documents)
        if index % DELTA_EVERY != DELTA_EVERY - 1])


def _ingest_setup(inputs: Inputs, directory: Path,
                  traced: bool) -> dict[str, Any]:
    layers = open_layers(traced)
    with Stopwatch(laps=not traced) as watch:
        with layers.span("run.ingest.setup", "run"):
            with layers.span("synth.generate"):
                corpus = inputs.corpus()
            with layers.span("pipeline.ingest"):
                outcome = ingest_corpus(_base_of(corpus), PipelineConfig(
                    seed=inputs.seed, checkpoint_dir=directory))
    return {"setup": watch.reading,
            "full_rebuild": outcome.report.full_rebuild,
            "spans": layers.spans()}


def _full_rebuild(inputs: Inputs) -> dict[str, Any]:
    corpus = inputs.corpus()
    database = process_corpus(corpus, PipelineConfig(
        seed=inputs.seed)).database
    return {"fingerprint": database.fingerprint(),
            "delta": len(corpus.documents) - len(_base_of(corpus).documents)}


def _files(directory: Path) -> dict[str, tuple[int, int]]:
    return {str(path): (path.stat().st_ino, path.stat().st_size)
            for path in directory.rglob("*") if path.is_file()}


def _bytes_written(before: dict[str, tuple[int, int]],
                   after: dict[str, tuple[int, int]]) -> int:
    """Bytes the job wrote into a checkpoint dir: journals only grow in
    place, and everything else is replaced by an atomic rename."""
    written = 0
    for path, (inode, size) in after.items():
        old = before.get(path)
        if old is not None and old[0] == inode and size >= old[1]:
            written += size - old[1]
        else:
            written += size
    return written


def _ingest_job(corpus: SyntheticCorpus, seed: int, prepared: Path,
                work: Path, traced: bool) -> dict[str, Any]:
    shutil.copytree(prepared, work)
    _require_cold_cache()
    layers = open_layers(traced)
    before = _files(work)
    started = time.perf_counter()
    with layers.span("run.ingest.job", "run"):
        with layers.span("pipeline.ingest"):
            outcome = ingest_corpus(corpus, PipelineConfig(
                seed=seed, checkpoint_dir=work))
    op_s = time.perf_counter() - started
    report = outcome.report
    return {
        "op_s": op_s,
        "fingerprint": outcome.database.fingerprint(),
        "full_rebuild": report.full_rebuild,
        "counts": {
            **_counts(outcome.result.diagnostics),
            "checkpoint.bytes_written": _bytes_written(before, _files(work)),
            "checkpoint.fsyncs": layers.fsyncs["checkpoint"],
            "ingest.delta_documents": (report.new_documents
                                       + report.changed_documents),
        },
        "spans": layers.spans(),
    }


def _ingest_holder(_connection: Any, inputs: Inputs, prepared: Path,
                   seconds: float, traced: bool,
                   workdir: Path) -> list[dict[str, Any]]:
    corpus = inputs.corpus()

    def job(index: int, traced_rep: bool) -> tuple[dict, float]:
        work = workdir / f"ingest-work-{index}"
        try:
            return run_in_child(_ingest_job, corpus, inputs.seed, prepared,
                                work, traced_rep, context=FORK)
        finally:
            shutil.rmtree(work, ignore_errors=True)

    return _repeat(job, seconds, traced)


def _run_ingest(run: Run) -> None:
    before, after = _split(SETUPS["ingest"])

    def setup(index: int) -> Path:
        directory = run.workdir / f"ingest-base-{index}"
        value, _ = run_in_child(_ingest_setup, run.inputs, directory,
                                run.traced)
        run.add_setup(value["setup"])
        run.add_spans(value["spans"])
        run.check(value["full_rebuild"],
                  "the first ingest into an empty directory reused state")
        return directory

    for index in range(before):
        prepared = setup(index)
    reps, _ = Child(_ingest_holder, run.inputs, prepared, run.seconds,
                    run.traced, run.workdir).finish()
    for index in range(before, before + after):
        setup(index)
    reference, _ = run_in_child(_full_rebuild, run.inputs)
    done = _adopt(run, reps)
    for rep in done:
        run.check(rep["fingerprint"] == reference["fingerprint"],
                  "delta ingest differs from a full rebuild")
        run.check(rep["full_rebuild"] is False,
                  "delta ingest fell back to a full rebuild")
        delta = rep["counts"]["ingest.delta_documents"]
        run.check(delta == reference["delta"],
                  f"delta ingest saw {delta} new documents, "
                  f"expected {reference['delta']}")
    run.extra["fingerprint"] = reference["fingerprint"]
    if run.traced:
        _batch_layers(run, done)


# ----------------------------------------------------------------------
# serve-hot / serve-filtered: the /v1 API over one server child.
# ----------------------------------------------------------------------

def _serve_prepare(inputs: Inputs, db_path: Path,
                   mix: str) -> dict[str, Any]:
    process_corpus(inputs.corpus(), PipelineConfig(
        seed=inputs.seed)).database.save(db_path)
    engine = QueryEngine(load_database(db_path))
    answers = (hot_answers(engine) if mix == "hot"
               else dict(filtered_pool(engine, inputs.seed)))
    return {"answers": answers, "db_bytes": db_path.stat().st_size}


def _server(connection: Any, db_path: Path, traced: bool) -> dict[str, Any]:
    """``repro serve --db``: load, index, listen; serve until told.

    Sends up its port and its set-up reading.  The set-up is timed
    inside this one process: a process start and a round trip through
    the benchmark process would add scheduling waits that follow the
    neighbours' load on a shared box, not the server's work.
    """
    layers = open_layers(traced)
    with Stopwatch(laps=not traced) as watch:
        with layers.span("run.serve.setup", "run"):
            with layers.span("store.load"):
                db = load_database(db_path)
            server = QueryServer(db, port=0)
            server.start()
    send_up(connection, (server.port, watch.reading))
    try:
        connection.recv()
    except EOFError:
        pass  # the benchmark process is gone: stop serving
    server.shutdown()
    return {"spans": layers.spans()}


def _get(port: int, path: str) -> tuple[int, bytes]:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def _start_server(db_path: Path, traced: bool,
                  ) -> tuple[Child, int, tuple[float, float]]:
    """A server child that answers ``/v1/healthz``; returns it with its
    port and set-up reading."""
    child = Child(_server, db_path, traced)
    port, reading = child.recv()
    status, body = _get(port, "/v1/healthz")
    if status != 200:
        child.kill()
        raise RuntimeError(f"/v1/healthz answered {status}: {body!r}")
    return child, port, reading


def _stop_server(child: Child) -> tuple[dict[str, Any], float]:
    child.send("stop")
    return child.finish()


@dataclass
class Load:
    """One closed-loop phase, as the clients saw it."""

    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    #: The first body each distinct path was answered with.
    bodies: dict[str, bytes] = field(default_factory=dict)
    elapsed_s: float = 0.0

    @property
    def rps(self) -> float:
        return len(self.latencies) / self.elapsed_s


def closed_loop(port: int, paths: list[str], seconds: float,
                seed: str) -> Load:
    """CLIENT_THREADS clients, each drawing paths uniformly with its
    own seeded generator and sending the next request only after the
    previous reply.  A failed request is counted, never retried."""
    loads = [Load() for _ in range(CLIENT_THREADS)]
    gate = threading.Barrier(CLIENT_THREADS + 1)
    deadline = [0.0]

    def client(index: int) -> None:
        out = loads[index]
        rng = random.Random(f"{seed}/{index}")
        connection = http.client.HTTPConnection("127.0.0.1", port,
                                                timeout=10)
        gate.wait()
        try:
            while time.perf_counter() < deadline[0]:
                path = rng.choice(paths)
                began = time.perf_counter()
                out.attempted += 1
                try:
                    connection.request("GET", path)
                    response = connection.getresponse()
                    body = response.read()
                except (OSError, http.client.HTTPException) as exc:
                    out.failed += 1
                    out.errors.append(f"{path}: {exc!r}")
                    connection.close()
                    connection = http.client.HTTPConnection(
                        "127.0.0.1", port, timeout=10)
                    continue
                latency = time.perf_counter() - began
                if response.status != 200:
                    out.failed += 1
                    out.errors.append(f"{path}: HTTP {response.status}")
                    continue
                out.latencies.append(latency)
                out.bodies.setdefault(path, body)
        finally:
            connection.close()

    threads = [threading.Thread(target=client, args=(index,))
               for index in range(CLIENT_THREADS)]
    for thread in threads:
        thread.start()
    deadline[0] = time.perf_counter() + seconds
    began = time.perf_counter()
    gate.wait()
    for thread in threads:
        thread.join()
    merged = Load(elapsed_s=time.perf_counter() - began)
    for load in loads:
        merged.latencies.extend(load.latencies)
        merged.attempted += load.attempted
        merged.failed += load.failed
        merged.errors.extend(load.errors)
        for path, body in load.bodies.items():
            merged.bodies.setdefault(path, body)
    return merged


def _cache_stats(port: int) -> dict[str, int]:
    status, body = _get(port, "/v1/stats")
    if status != 200:
        raise RuntimeError(f"/v1/stats answered {status}")
    return json.loads(body)["cache"]


def _count_load(run: Run, load: Load) -> None:
    run.attempted += load.attempted
    run.failed += load.failed
    run.problems.extend(load.errors[:max(0, 20 - len(run.problems))])


def _verify(run: Run, bodies: dict[str, bytes],
            answers: dict[str, str]) -> None:
    """Each distinct path's answer, minus its volatile fields, must be
    what the in-process engine computed on the same database."""
    for path, body in sorted(bodies.items()):
        try:
            digest = answer_digest(json.loads(body))
        except ValueError:
            digest = None
        run.check(digest == answers[path],
                  f"{path}: answer differs from the in-process engine")


def _answer_each_once(run: Run, port: int, paths: list[str],
                      answers: dict[str, str]) -> None:
    """Before timing: every path answered once, and checked."""
    for path in paths:
        status, body = _get(port, path)
        run.attempted += 1
        if run.check(status == 200, f"{path}: HTTP {status}"):
            _verify(run, {path: body}, answers)


def _serve_phase(run: Run, port: int, paths: list[str], warmup_s: float,
                 seconds: float, tag: str) -> tuple[Load, dict[str, int]]:
    """Warm up, then measure; returns the load and cache-stat deltas."""
    bodies: dict[str, bytes] = {}
    if warmup_s > 0:
        warm = closed_loop(port, paths, warmup_s, f"{run.seed}/{tag}/warm")
        _count_load(run, warm)
        bodies.update(warm.bodies)
    before = _cache_stats(port)
    load = closed_loop(port, paths, seconds, f"{run.seed}/{tag}")
    after = _cache_stats(port)
    _count_load(run, load)
    if not load.latencies:
        raise RuntimeError(f"no request succeeded: {load.errors[:3]}")
    for path, body in load.bodies.items():
        bodies.setdefault(path, body)
    load.bodies = bodies
    return load, {key: after[key] - before[key]
                  for key in ("hits", "misses", "evictions")}


def _run_serve(run: Run, mix: str) -> None:
    db_path = run.workdir / "serve-db.json"
    prepared, _ = run_in_child(_serve_prepare, run.inputs, db_path, mix)
    answers: dict[str, str] = prepared["answers"]
    paths = list(answers)
    run.extra["distinct_paths"] = len(paths)
    if run.traced:
        _serve_traced(run, db_path, mix, answers, prepared["db_bytes"])
        return
    before, after = _split(SETUPS["serve"])
    for index in range(before):
        child, port, reading = _start_server(db_path, False)
        run.add_setup(reading)
        if index == 0 and mix == "hot":
            _answer_each_once(run, port, paths, answers)
        if index < before - 1:
            child.kill()
    try:
        load, cache = _serve_phase(run, port, paths, WARMUP_S, run.seconds,
                                   "measure")
    finally:
        _, peak_mb = _stop_server(child)
    for _ in range(after):
        child, _, reading = _start_server(db_path, False)
        run.add_setup(reading)
        child.kill()
    run.peak_rss_mb.append(peak_mb)
    run.op_s = load.latencies
    run.throughput = load.rps
    _verify(run, load.bodies, answers)
    run.extra.update(_serving_extra(load, cache))
    run.extra["paths_verified"] = len(load.bodies)


def _serving_extra(load: Load, cache: dict[str, int]) -> dict[str, float]:
    lookups = cache["hits"] + cache["misses"]
    return {
        "server.p99_ms": percentile(load.latencies, 99.0) * 1e3,
        "server.p999_ms": percentile(load.latencies, 99.9) * 1e3,
        "cache.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "cache.evictions": cache["evictions"],
    }


def _serve_traced(run: Run, db_path: Path, mix: str,
                  answers: dict[str, str], db_bytes: int) -> None:
    """Half the run untraced, half against a traced server child."""
    paths = list(answers)
    half = run.seconds / 2.0
    child, port, _ = _start_server(db_path, False)
    try:
        if mix == "hot":
            _answer_each_once(run, port, paths, answers)
        plain, cache = _serve_phase(run, port, paths, WARMUP_S / 2, half,
                                    "plain")
    finally:
        _stop_server(child)
    child, port, _ = _start_server(db_path, True)
    try:
        traced, _ = _serve_phase(run, port, paths, 0.0, half, "traced")
    finally:
        result, _ = _stop_server(child)
    _verify(run, {**traced.bodies, **plain.bodies}, answers)
    run.add_spans(result["spans"])
    run.op_s = plain.latencies
    run.throughput = plain.rps

    values = dict.fromkeys(PER_LAYER, 0.0)
    setups = [tree for tree in run.trees
              if tree[0]["name"].endswith(".setup")]
    values.update(span_metrics([setups]))
    served = request_metrics(run.spans)
    values.update(served)
    values.update(_serving_extra(plain, cache))
    values.update(run.op_metrics())
    values.update({
        "store.bytes": db_bytes,
        "client.overhead_us": (sum(traced.latencies) / len(traced.latencies)
                               * 1e6 - served["server.handler_us"]),
        "trace.overhead_pct": (plain.rps / traced.rps - 1.0) * 100.0,
    })
    run.layers = values
    requests = [tree for tree in run.trees
                if tree[0]["name"] == "server.request"]
    run.report.append(f"  traced request accounting ({run.workload}, "
                      "per request):")
    run.report.extend(accounting(requests, unit="us"))
    run.report.append(f"    client overhead {values['client.overhead_us']:.1f}"
                      " us per request beyond the handler")
