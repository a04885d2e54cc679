"""One pre-fork worker: an isolated engine behind the shared port.

Each worker process owns the full single-process serving stack — its
own immutable index, query engine, result cache, snapshot manager,
and admission control — so nothing is shared across workers except
the port (each worker binds its own ``SO_REUSEPORT`` socket) and the
generation file.  Two cross-process concerns live here:

**Metrics aggregation.**  Every worker flushes its registry's
:meth:`~repro.obs.metrics.MetricsRegistry.dump` to
``<metrics_dir>/worker-<id>.pkl`` (atomic temp + ``os.replace``) on a
short interval and at shutdown.  Whichever worker the kernel hands a
``GET /metrics`` merges every *sibling's* latest dump plus its own
**live** registry into a fresh scratch registry via the additive
:meth:`~repro.obs.metrics.MetricsRegistry.merge`, so one scrape shows
fleet-wide totals no matter which worker answered.  Each dump is a
complete per-worker snapshot merged exactly once per scrape — never
double-counted.  The per-worker ``repro_serving_worker_up{worker=N}``
gauge makes the aggregation provable: a scrape that reflects all
workers carries one series per worker id.

**Hot swap.**  A :class:`~repro.serving.generation.GenerationWatcher`
polls the generation file; a new generation is loaded through the
worker's own :class:`~repro.query.snapshot.SnapshotManager` (so a
corrupt candidate is quarantined per-worker and the last-good
snapshot keeps serving).  Every response is still built from exactly
one captured snapshot.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
from dataclasses import dataclass, field
from pathlib import Path

from ..obs.metrics import (
    MetricsRegistry,
    SERVING_WORKER_GENERATION,
    SERVING_WORKER_UP,
)
from ..pipeline.store import FailureDatabase
from ..query.server import QueryServer
from ..query.snapshot import SnapshotManager
from .generation import GenerationFile, GenerationWatcher

#: Seconds between a worker's reads of the generation file.
POLL_INTERVAL_S = 0.2

#: Seconds between a worker's metrics dumps.
FLUSH_INTERVAL_S = 0.5


@dataclass(frozen=True)
class WorkerConfig:
    """Everything one worker needs (picklable — crosses the fork)."""

    worker_id: int
    host: str
    port: int
    generation_path: str
    metrics_dir: str
    cache_size: int = 256
    max_inflight: int = 64
    deadline_s: float = 10.0
    drain_timeout_s: float = 5.0
    verbose: bool = False


def _dump_path(metrics_dir: str | Path, worker_id: int) -> Path:
    return Path(metrics_dir) / f"worker-{worker_id}.pkl"


def flush_metrics(registry: MetricsRegistry, metrics_dir: str | Path,
                  worker_id: int) -> None:
    """Atomically publish this worker's full registry dump."""
    target = _dump_path(metrics_dir, worker_id)
    tmp = target.with_name(target.name + ".tmp")
    with open(tmp, "wb") as handle:
        pickle.dump(registry.dump(), handle)
    os.replace(tmp, target)


def aggregate_metrics(registry: MetricsRegistry,
                      metrics_dir: str | Path,
                      own_worker_id: int | None = None) -> str:
    """Merge every sibling dump + the live registry into one text.

    The scratch registry is rebuilt per scrape: each sibling's dump
    is a complete snapshot folded in exactly once (so counters are
    fleet totals, not double counts), and the answering worker's
    *live* registry is merged last so its own numbers are fresher
    than its last flush.  A torn or vanishing dump file is skipped —
    the scrape degrades to the remaining workers rather than failing.
    """
    scratch = MetricsRegistry()
    own_name = (None if own_worker_id is None
                else _dump_path(metrics_dir, own_worker_id).name)
    for path in sorted(Path(metrics_dir).glob("worker-*.pkl")):
        if path.name == own_name:
            continue
        try:
            with open(path, "rb") as handle:
                scratch.merge(pickle.load(handle))
        except Exception:
            continue  # torn write or sibling mid-replace
    scratch.merge(registry.dump())
    return scratch.render_prometheus()


@dataclass
class _WorkerRuntime:
    """The assembled worker (kept for tests; ``run_worker`` drives it)."""

    config: WorkerConfig
    server: QueryServer
    registry: MetricsRegistry
    watcher: GenerationWatcher
    stop: threading.Event = field(default_factory=threading.Event)


def build_worker(config: WorkerConfig) -> _WorkerRuntime:
    """Assemble (but do not run) one worker's serving stack."""
    generation_file = GenerationFile(config.generation_path)
    generation = generation_file.wait()
    if generation is None:
        raise RuntimeError(
            f"no readable generation file at "
            f"{config.generation_path!r}")
    db = FailureDatabase.load(generation.path)
    registry = MetricsRegistry()
    manager = SnapshotManager(
        db, source=generation.path, cache_size=config.cache_size,
        registry=registry)
    server = QueryServer(
        manager, config.host, config.port,
        registry=registry, verbose=config.verbose,
        max_inflight=config.max_inflight,
        deadline_s=config.deadline_s,
        drain_timeout_s=config.drain_timeout_s,
        reuse_port=True)

    worker_label = str(config.worker_id)
    registry.gauge(
        SERVING_WORKER_UP,
        "Pre-fork worker identity (1 while the worker serves).",
        ("worker",)).labels(worker_label).set(1)
    generation_gauge = registry.gauge(
        SERVING_WORKER_GENERATION,
        "Generation this worker currently serves.", ("worker",))
    generation_gauge.labels(worker_label).set(generation.generation)

    server.metrics_renderer = lambda live: aggregate_metrics(
        live, config.metrics_dir, config.worker_id)

    def on_change(new_generation) -> None:
        manager.load(new_generation.path)
        generation_gauge.labels(worker_label).set(
            new_generation.generation)

    watcher = GenerationWatcher(
        generation_file, on_change,
        interval_s=POLL_INTERVAL_S,
        start_generation=generation.generation)
    return _WorkerRuntime(config=config, server=server,
                          registry=registry, watcher=watcher)


def run_worker(config: WorkerConfig) -> int:
    """The worker process main: serve until SIGTERM/SIGINT, drain,
    flush, exit 0.  (Runs as the main thread of a forked child.)"""
    runtime = build_worker(config)
    stop = runtime.stop

    def handle_signal(signum, frame) -> None:
        stop.set()

    signal.signal(signal.SIGTERM, handle_signal)
    signal.signal(signal.SIGINT, handle_signal)

    def flush_loop() -> None:
        while not stop.is_set():
            try:
                flush_metrics(runtime.registry, config.metrics_dir,
                              config.worker_id)
            except OSError:
                pass  # metrics dir vanished; keep serving
            stop.wait(FLUSH_INTERVAL_S)

    flusher = threading.Thread(target=flush_loop,
                               name="repro-metrics-flush",
                               daemon=True)
    runtime.server.start()
    runtime.watcher.start()
    flusher.start()
    try:
        stop.wait()
    finally:
        runtime.watcher.stop()
        runtime.server.shutdown()  # graceful drain
        flusher.join(timeout=5.0)
        try:
            flush_metrics(runtime.registry, config.metrics_dir,
                          config.worker_id)
        except OSError:
            pass
    return 0
