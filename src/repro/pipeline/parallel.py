"""Deterministic chunked execution of Stage II-III (perf layer).

The per-document Stage II work (OCR -> parse) and the per-record
Stage III tagging are embarrassingly parallel: every unit draws its
randomness from its own child stream of the pipeline seed (see
:mod:`repro.rng`), so no unit's output depends on when — or in which
process — it runs.  Every run therefore computes its units one way:

* The chunk functions (:func:`_stage2_batch`, :func:`_stage3_batch`)
  compute each unit in isolation and return its **result** — the
  parsed records, parse error or quarantine entry of a document, the
  tag of a record — plus diagnostics deltas (OCR stats, resilience
  health, token-cache counts, wall time) that never touch the
  journal.
* The **coordinator** merges outcomes strictly in original corpus
  order: records enter the database, quarantine entries are adopted,
  health counters accumulate, and checkpoint journal bodies are
  encoded from the results and appended in corpus order.  The saved
  :class:`~repro.pipeline.store.FailureDatabase` is byte-identical at
  every worker count — under quarantine, chaos injection, and
  crash -> resume alike.

:class:`ParallelExecutor` decides only *where* a chunk runs: with
``workers=0`` (the default) in-process, when the merge loop pulls it,
on the coordinator's own tagger; with ``workers=N`` in an N-process
pool.  Checkpoint journals are written only by the coordinator, and
:class:`~repro.pipeline.chaos.CrashPoint` kill points fire in its
merge loop, so ``--resume`` and ``--crash-at`` semantics are the same
at every worker count.

Failure-policy semantics are preserved per unit:

* ``quarantine`` — a chunk dead-letters the unit locally and ships
  the quarantine entry home as the unit's result.
* ``threshold``  — chunks capture failures like ``quarantine``; the
  coordinator re-enforces the stage error-rate threshold on the
  *merged* counters after each unit, so the run aborts at the unit
  whose failure crosses it.
* ``fail_fast``  — the chunk converts the
  :class:`~repro.errors.PipelineError` verdict into a marker that the
  coordinator re-raises when the failing unit's turn comes up in
  corpus order.
"""

from __future__ import annotations

import math
import pickle
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runner
    from .config import PipelineConfig  # imports this module)
    from .stages import OcrStageStats
    from ..nlp.tagger import VotingTagger

#: Stages whose units run through the executor; their summed wall
#: time is a pooled run's ``parallel_wall_s``.
FANNED_STAGES = ("parse-documents", "accident-documents", "tag")

#: ``auto`` batch sizing spreads a stage over about this many chunks
#: per worker: enough slack for the pool to balance unevenly sized
#: units, few enough tasks that per-task overhead stays amortized.
BATCH_AUTO_CHUNKS_PER_WORKER = 4

#: Upper clamp for auto-resolved batch sizes, bounding both the
#: payload a single task pickles and the journal window a crash can
#: lose (buffered appends flush at chunk boundaries).
BATCH_SIZE_CLAMP = 256


def resolve_batch_size(batch_size: int | None, n_units: int,
                       workers: int) -> int:
    """Units per dispatched chunk for one stage's fan-out.

    An explicit ``batch_size`` wins as-is; ``None`` (the ``auto``
    default) targets :data:`BATCH_AUTO_CHUNKS_PER_WORKER` chunks per
    worker (an in-process run, ``workers=0``, counts as one), clamped
    to ``[1, BATCH_SIZE_CLAMP]``.  Pure function of its inputs so the
    resolved size is reproducible from the run report.
    """
    if batch_size is not None:
        return max(1, batch_size)
    if n_units <= 0:
        return 1
    return max(1, min(
        BATCH_SIZE_CLAMP,
        math.ceil(n_units / (max(1, workers)
                             * BATCH_AUTO_CHUNKS_PER_WORKER))))


# ----------------------------------------------------------------------
# Diagnostics.
# ----------------------------------------------------------------------

@dataclass
class StageDispatch:
    """What one fanned stage of a pooled run shipped through the pool."""

    #: Dispatch chunks folded by the coordinator.
    tasks: int = 0
    #: Units those chunks accounted for.
    units: int = 0
    #: Pickled chunk-outcome bytes, an estimate of pipe traffic
    #: (measured only when the run collects metrics).
    payload_bytes: int = 0


@dataclass
class ParallelStats:
    """What the parallel layer observed about one run.

    Lives on :class:`~repro.pipeline.stages.PipelineDiagnostics`;
    stage wall times and unit counts are recorded for serial runs too
    (the run's one stage timer, :meth:`repro.obs.Observability.stage`,
    fills the former), the worker fields only when a pool was
    actually used.
    """

    #: Configured worker count (0 = serial).
    workers: int = 0
    #: Resolved executor kind: ``serial`` (in-process) or ``process``.
    mode: str = "serial"
    #: Stage name -> coordinator wall-clock seconds.
    stage_wall_s: dict[str, float] = field(default_factory=dict)
    #: Fanned stage -> units it merged, restored or computed.
    stage_units: dict[str, int] = field(default_factory=dict)
    #: Fanned stage -> its pool traffic.  Pooled runs only; there every
    #: fanned stage has an entry, zero when it shipped no chunk.
    dispatch: dict[str, StageDispatch] = field(default_factory=dict)
    #: Summed worker-side compute seconds across the pool's units — the
    #: serial-time estimate for the fanned-out portion of the run.
    unit_compute_s: float = 0.0
    #: Coordinator wall-clock seconds spent in the
    #: :data:`FANNED_STAGES` (derived from ``stage_wall_s`` at the end
    #: of a pooled run).
    parallel_wall_s: float = 0.0
    #: Stage name -> resolved units-per-chunk batch size.
    batch_size: dict[str, int] = field(default_factory=dict)

    @property
    def enabled(self) -> bool:
        """Whether this run actually fanned work out."""
        return self.mode != "serial"

    @property
    def parallel_units(self) -> int:
        """Units of work computed by the pool (not restored, not serial)."""
        return sum(d.units for d in self.dispatch.values())

    @property
    def batch_tasks(self) -> int:
        """Dispatch chunks shipped to the pool (0 for serial runs)."""
        return sum(d.tasks for d in self.dispatch.values())

    @property
    def speedup_estimate(self) -> float | None:
        """Estimated speedup of the fanned-out stages vs serial.

        The ratio of summed per-unit worker compute time (what a
        serial run would have spent) to the coordinator wall time of
        the parallel stages.  ``None`` for serial runs.
        """
        if not self.enabled or self.parallel_wall_s <= 0.0:
            return None
        return self.unit_compute_s / self.parallel_wall_s

    def summary(self) -> dict[str, Any]:
        """JSON-friendly digest (mirrors the health summaries)."""
        return {
            "workers": self.workers,
            "mode": self.mode,
            "parallel_units": self.parallel_units,
            "unit_compute_s": self.unit_compute_s,
            "parallel_wall_s": self.parallel_wall_s,
            "speedup_estimate": self.speedup_estimate,
            "stage_wall_s": dict(self.stage_wall_s),
            "batch_tasks": self.batch_tasks,
            "batch_size": dict(self.batch_size),
        }


# ----------------------------------------------------------------------
# Worker-side state.
# ----------------------------------------------------------------------

@dataclass(slots=True)
class UnitOutcome:
    """One unit of work's outcome, as the merge loop consumes it.

    ``body`` is the unit's result, which the coordinator adopts and
    journals (``None`` only when ``error`` carries a ``fail_fast``
    verdict); the remaining fields are coordinator-side sidecars that
    never enter the journal.

    Since chunked dispatch, units cross the process-pool pipe inside a
    :class:`BatchOutcome` and the coordinator unpacks them into these
    per-unit views (``health`` is ``None`` when the chunk shipped one
    merged delta; chunk-level sidecars ride the chunk, so unpacked
    units carry ``elapsed=0``/``injected=0``).  The compact pickle
    state is kept: it is the per-unit wire baseline the payload
    benchmark measures chunking against.
    """

    body: Any
    #: Per-stage resilience counter deltas + degradation events, as
    #: the ``(stages, events)`` pair :func:`_health_delta` builds —
    #: ``None`` when the delta was merged at chunk level instead.
    health: tuple | None
    #: ``fail_fast`` verdict to re-raise at merge time (the serialized
    #: :class:`~repro.errors.PipelineError` message).
    error: str | None = None
    #: The document's own OCR stats (``None`` when the unit never
    #: entered OCR).
    ocr: OcrStageStats | None = None
    #: Worker-side wall seconds spent computing the unit.
    elapsed: float = 0.0
    #: Chaos faults injected while computing the unit.
    injected: int = 0

    def __getstate__(self) -> tuple:
        return (self.body, self.health, self.error, self.ocr,
                self.elapsed, self.injected)

    def __setstate__(self, state: tuple) -> None:
        (self.body, self.health, self.error, self.ocr,
         self.elapsed, self.injected) = state


@dataclass(slots=True)
class BatchOutcome:
    """What one worker computed for one dispatched chunk of units.

    ``bodies`` holds the results of the chunk's completed units in
    task (corpus) order.  Everything the per-unit encoding shipped
    once per unit — health delta, chaos count, wall time — rides once
    per chunk here, which is where the payload and per-task-overhead
    win comes from (measured in ``benchmarks/bench_parallel.py``).
    The coordinator unpacks a
    chunk back into :class:`UnitOutcome` views strictly in corpus
    order, so every merge-side state transition — and therefore every
    output byte — is identical at every batch size and worker count.

    Health granularity is adaptive: normally one merged delta for the
    whole chunk suffices, but when any unit in the chunk quarantined,
    per-unit deltas are shipped instead (``unit_health``) because the
    coordinator's threshold re-check must see the merged counters
    exactly as they stood at each quarantined unit's turn.
    """

    #: Results of completed units, in task order.  A unit that raised
    #: a ``fail_fast`` verdict contributes none; the chunk stops at it,
    #: exactly where a per-unit loop would have.
    bodies: list[Any]
    #: One merged ``(stages, events)`` delta for the chunk, or ``None``
    #: when ``unit_health`` carries per-unit deltas.
    health: tuple | None
    #: Per-unit ``(stages, events)`` deltas, aligned with ``bodies``
    #: plus the error unit (if any); shipped only when a unit in the
    #: chunk quarantined.
    unit_health: list[tuple] | None = None
    #: ``fail_fast`` verdict raised by the unit after the last body.
    error: str | None = None
    #: Per-unit OCR stats aligned with ``bodies`` (entries ``None``
    #: for units that never entered OCR; the whole field ``None`` when
    #: no unit did).
    ocr: list[OcrStageStats | None] | None = None
    #: Worker-side wall seconds spent computing the whole chunk.
    elapsed: float = 0.0
    #: Chaos faults injected across the chunk.
    injected: int = 0
    #: Token-memo hits and misses of a pool process's private cache
    #: while it tagged the chunk (0 for in-process chunks, whose cache
    #: the coordinator samples as a whole).
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def units(self) -> int:
        """Units this chunk accounts for (bodies + the error unit)."""
        return len(self.bodies) + (1 if self.error is not None else 0)

    def __getstate__(self) -> tuple:
        return (self.bodies, self.health, self.unit_health, self.error,
                self.ocr, self.elapsed, self.injected, self.cache_hits,
                self.cache_misses)

    def __setstate__(self, state: tuple) -> None:
        (self.bodies, self.health, self.unit_health, self.error,
         self.ocr, self.elapsed, self.injected, self.cache_hits,
         self.cache_misses) = state


#: This pool process's worker state, built by the pool initializer
#: (``None`` outside a pool).
_POOL_STATE: "_WorkerState | None" = None


def _init_worker(payload: bytes) -> None:
    """Pool initializer: build this process's worker state."""
    global _POOL_STATE
    config, dictionary_json = pickle.loads(payload)
    tagger = None
    if dictionary_json is not None:
        from ..nlp.dictionary import FailureDictionary
        from ..nlp.tagger import VotingTagger

        tagger = VotingTagger(FailureDictionary.from_json(dictionary_json))
    _POOL_STATE = _WorkerState(config, tagger, private_cache=True)


class _WorkerState:
    """Everything the chunk functions build once and reuse."""

    def __init__(self, config: "PipelineConfig",
                 tagger: "VotingTagger | None" = None,
                 private_cache: bool = False) -> None:
        from ..parsing import default_registry
        from .resilience import FailurePolicy
        from .stages import OcrStage

        self.config = config
        self.tagger = tagger
        #: Pool processes own a private token cache, so only they ship
        #: token-cache counts home; in-process chunks share the
        #: coordinator's cache, which the runner samples as a whole.
        self.private_cache = private_cache
        # ``threshold`` enforcement needs run-global counters, which
        # only the coordinator has: chunks capture failures like
        # ``quarantine`` and the coordinator re-checks the threshold
        # on the merged stats.
        mode = config.failure_policy
        self.policy = FailurePolicy(
            mode=("quarantine" if mode == "threshold" else mode),
            max_error_rate=config.max_error_rate,
            max_retries=config.max_retries)
        self.registry = default_registry()
        self.ocr_stage = (OcrStage(config.scanner_profile,
                                   config.correction_enabled,
                                   config.fallback_threshold)
                          if config.ocr_enabled else None)

    def guard(self, quarantine):
        """A fresh per-chunk guard (so health deltas are per chunk)."""
        from .chaos import ChaosInjector
        from .resilience import StageGuard

        chaos = (ChaosInjector(self.config.chaos, self.config.seed)
                 if self.config.chaos is not None else None)
        return StageGuard(policy=self.policy, seed=self.config.seed,
                          quarantine=quarantine, chaos=chaos)


def _health_delta(guard) -> tuple:
    """A worker guard's counters as a mergeable, picklable delta.

    A bare ``(stages, events)`` pair rather than a keyed dict: the
    delta rides home once per unit, and dropping the two string keys
    (and their dict) from every pickle is measurable at Stage III
    volumes (see ``benchmarks/bench_parallel.py``).
    """
    return (
        {
            name: (s.attempts, s.errors, s.retries,
                   s.degradations, s.quarantined)
            for name, s in guard.health.stages.items()
            if s.attempts or s.errors or s.retries
        },
        list(guard.health.degradation_events),
    )


def _snapshot_health(guard) -> dict[str, tuple]:
    """All stage counters as plain tuples (for per-unit diffing)."""
    return {
        name: (s.attempts, s.errors, s.retries,
               s.degradations, s.quarantined)
        for name, s in guard.health.stages.items()
    }


def _per_unit_deltas(snaps: list[dict], events: list,
                     events_at: list[int]) -> list[tuple]:
    """Per-unit ``(stages, events)`` deltas from counter snapshots."""
    deltas: list[tuple] = []
    for i in range(len(snaps) - 1):
        before, after = snaps[i], snaps[i + 1]
        stages = {}
        for name, counters in after.items():
            prev = before.get(name)
            if prev is None:
                if any(counters):
                    stages[name] = counters
            elif prev != counters:
                stages[name] = tuple(
                    now - was for now, was in zip(counters, prev))
        deltas.append((stages, events[events_at[i]:events_at[i + 1]]))
    return deltas


def _stage2_batch(tasks: list[tuple[str, Any]],
                  state: _WorkerState | None = None) -> BatchOutcome:
    """Compute one chunk of Stage II documents with shared context.

    One guard and quarantine serve the whole chunk — their per-task
    setup and shipping cost is exactly what chunking amortizes —
    while the per-unit isolation that shapes output is preserved: each
    document gets its own OCR stats, which ship home as they are (one
    document's running mean IS its confidence, which the
    coordinator's merge replay depends on), and health counters are
    snapshotted per unit so a quarantine anywhere in the chunk ships
    unit-aligned deltas for the coordinator's threshold re-check.  A
    ``fail_fast`` verdict stops the chunk at the failing unit, exactly
    where a per-unit loop would have stopped.
    """
    from ..errors import PipelineError
    from . import runner
    from .resilience import Quarantine
    from .stages import OcrStageStats

    if state is None:
        state = _POOL_STATE
    started = time.perf_counter()
    quarantine = Quarantine()
    guard = state.guard(quarantine)
    bodies: list = []
    ocr_deltas: list = []
    any_ocr = False
    any_quarantine = False
    error = None
    events = guard.health.degradation_events
    snaps = [_snapshot_health(guard)]
    events_at = [0]
    for kind, document in tasks:
        ocr = OcrStageStats()
        quarantined_before = len(quarantine)
        try:
            if kind == "disengagement":
                body = runner._process_disengagement(
                    document, state.config, ocr, guard,
                    state.ocr_stage, state.registry)
            else:
                body = runner._process_accident(
                    document, state.config, ocr, guard,
                    state.ocr_stage)
        except PipelineError as exc:
            error = str(exc)
            snaps.append(_snapshot_health(guard))
            events_at.append(len(events))
            break
        bodies.append(body)
        snaps.append(_snapshot_health(guard))
        events_at.append(len(events))
        if len(quarantine) > quarantined_before:
            any_quarantine = True
        if ocr.documents:
            any_ocr = True
            ocr_deltas.append(ocr)
        else:
            ocr_deltas.append(None)
    if any_quarantine:
        health, unit_health = None, _per_unit_deltas(
            snaps, list(events), events_at)
    else:
        health, unit_health = _health_delta(guard), None
    return BatchOutcome(
        bodies=bodies, health=health, unit_health=unit_health,
        error=error, ocr=ocr_deltas if any_ocr else None,
        elapsed=time.perf_counter() - started,
        injected=guard.chaos.injected if guard.chaos is not None else 0)


def _stage3_batch(tasks: list[tuple[str, str]],
                  state: _WorkerState | None = None) -> BatchOutcome:
    """Tag one chunk of records with shared context.

    The chunk's narratives go through the batch-native
    :meth:`~repro.nlp.tagger.VotingTagger.tag_batch` in one call —
    one tokenization/index pass for the whole chunk — and each
    precomputed result is then adopted under the record's own guarded
    stage run, so retries, chaos injection (decisions are drawn per
    ``(stage, unit)``, independent of the compute), and fallbacks
    fire exactly as they would per unit.  The tag stage always has a
    fallback, so outside ``fail_fast`` a failure degrades rather than
    quarantines — one merged health delta is always sufficient here.
    A pool process owns a private token cache, so its hits and misses
    over the chunk ride home as two ints.
    """
    from ..errors import PipelineError
    from ..nlp.textcache import token_cache
    from . import runner
    from .resilience import Quarantine

    if state is None:
        state = _POOL_STATE
    started = time.perf_counter()
    guard = state.guard(Quarantine())
    cache_before = (token_cache().stats() if state.private_cache
                    else None)
    results = state.tagger.tag_batch([text for _, text in tasks])
    bodies: list = []
    error = None
    for (record_id, _), precomputed in zip(tasks, results):
        try:
            result = guard.run("tag", record_id,
                               lambda precomputed=precomputed:
                               precomputed,
                               fallback=runner._unknown_tag)
            bodies.append((result.tag, result.category))
        except PipelineError as exc:
            error = str(exc)
            break
    outcome = BatchOutcome(
        bodies=bodies, health=_health_delta(guard), error=error,
        elapsed=time.perf_counter() - started,
        injected=guard.chaos.injected if guard.chaos is not None else 0)
    if cache_before is not None:
        after = token_cache().stats()
        outcome.cache_hits = after["hits"] - cache_before["hits"]
        outcome.cache_misses = after["misses"] - cache_before["misses"]
    return outcome


def iter_units(batches: Iterator[BatchOutcome],
               on_batch: Callable[[BatchOutcome], None],
               ) -> Iterator[UnitOutcome]:
    """Flatten chunk outcomes back into per-unit outcomes.

    ``on_batch`` fires once per chunk, before its units are yielded —
    the coordinator folds the chunk-level sidecars (merged health,
    chaos count, token-cache counts, batch accounting, journal-buffer
    flush) there, exactly once, at the position in corpus order where the
    chunk's first unit is merged.  Unpacked views carry
    ``health=None`` when the chunk shipped one merged delta, and zero
    ``elapsed``/``injected`` (those ride the chunk).
    """
    for batch in batches:
        on_batch(batch)
        unit_health = batch.unit_health
        ocr = batch.ocr
        for i, body in enumerate(batch.bodies):
            yield UnitOutcome(
                body=body,
                health=None if unit_health is None else unit_health[i],
                ocr=None if ocr is None else ocr[i])
        if batch.error is not None:
            yield UnitOutcome(
                body=None,
                health=(None if unit_health is None
                        else unit_health[len(batch.bodies)]),
                error=batch.error)


# ----------------------------------------------------------------------
# Coordinator side.
# ----------------------------------------------------------------------

def worker_config(config: "PipelineConfig") -> "PipelineConfig":
    """The slice of the run config a worker needs.

    Crash points, checkpointing, tracing, metrics and nested
    parallelism are coordinator concerns; stripping them keeps the
    worker payload small and makes it impossible for a worker to
    journal, crash the run, write a trace file, or spawn its own pool.
    (The coordinator renders a run's metrics from its diagnostics, so
    a chunk ships diagnostics deltas only.)  ``batch_size`` is
    stripped too: chunking is decided coordinator-side, so the worker
    payload is identical at every batch size.
    """
    return replace(config, crash=None, checkpoint_dir=None,
                   resume=False, workers=0, batch_size=None,
                   trace_dir=None, metrics_enabled=False)


class ParallelExecutor:
    """Runs one pipeline run's Stage II-III chunks.

    ``workers=0`` computes each chunk in-process, lazily, when the
    coordinator's merge loop pulls it (so a kill point or an abort
    leaves later chunks uncomputed); ``workers=N`` submits every chunk
    to an N-process pool up front.  Both run the same chunk functions
    and yield :class:`BatchOutcome` objects in submission order.

    Stage II and Stage III need different pool payloads (the tagging
    pool carries the built failure dictionary), so the pool is rebuilt
    whenever the payload changes.  Used as a context manager: closing
    is safe mid-exception, so a
    :class:`~repro.pipeline.chaos.SimulatedCrash` or a policy abort
    still tears the pool down.
    """

    def __init__(self, config: "PipelineConfig",
                 stats: ParallelStats) -> None:
        self.workers, stats.mode = config.resolved_parallelism()
        stats.workers = self.workers
        self.stats = stats
        self._config = worker_config(config)
        self._batch_size = config.batch_size
        self._local: _WorkerState | None = None
        self._pool: ProcessPoolExecutor | None = None
        self._payload: bytes | None = None

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _run(self, fn: Callable[..., BatchOutcome], chunks: list[list],
             tagger: "VotingTagger | None") -> Iterator[BatchOutcome]:
        if not self.workers:
            if self._local is None:
                self._local = _WorkerState(self._config)
            state = self._local
            state.tagger = tagger
            return (fn(chunk, state) for chunk in chunks)
        dictionary_json = (tagger.dictionary.to_json()
                           if tagger is not None else None)
        payload = pickle.dumps((self._config, dictionary_json))
        if self._pool is None or payload != self._payload:
            self.close()
            self._payload = payload
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_init_worker, initargs=(payload,))
        return self._pool.map(fn, chunks, chunksize=1)

    def _chunk(self, tasks: list, stage: str,
               whole_stage: bool = False) -> list[list]:
        """Split a stage's pending units into dispatch chunks.

        ``whole_stage`` makes ``auto`` one chunk.  Records the resolved
        batch size on the run stats (so reports and benchmarks can
        attribute speedups to it) and warns — once per stage, without
        failing — when an explicit ``batch_size`` exceeds the unit
        count, because the whole stage then rides in a single task and
        the pool cannot balance at all.
        """
        if whole_stage and self._batch_size is None:
            size = max(1, len(tasks))
        else:
            size = resolve_batch_size(self._batch_size, len(tasks),
                                      self.workers)
        self.stats.batch_size[stage] = size
        if (self._batch_size is not None and tasks
                and self._batch_size > len(tasks)):
            warnings.warn(
                f"batch_size {self._batch_size} exceeds the "
                f"{len(tasks)} dispatched unit(s) of stage {stage!r}; "
                "the whole stage rides in one task", stacklevel=4)
        return [tasks[i:i + size] for i in range(0, len(tasks), size)]

    def map_documents(self, tasks: list[tuple[str, Any]], stage: str,
                      ) -> Iterator[BatchOutcome]:
        """Stage II documents in chunks; yields chunk outcomes in
        submission order (documents are coarse units, so ``auto``
        resolves to small chunks that keep a pool load-balanced).
        """
        return self._run(_stage2_batch, self._chunk(tasks, stage), None)

    def map_tags(self, tagger: "VotingTagger",
                 tasks: list[tuple[str, str]],
                 ) -> Iterator[BatchOutcome]:
        """Stage III tagging in chunks; yields chunk outcomes in
        submission order.  Records are tiny uniform units — the chunk
        is also the tagger's batch, so per-task overhead *and*
        per-record tagging overhead amortize together.  A pool
        rebuilds the tagger from the dictionary's JSON; in-process,
        ``tagger`` itself tags the stage in one chunk (there is no pool
        to balance, tag bodies are tiny, and one ``tag_batch`` call
        dedupes every repeated narrative).
        """
        chunks = self._chunk(tasks, "tag", whole_stage=not self.workers)
        return self._run(_stage3_batch, chunks, tagger)

    def close(self) -> None:
        """Tear the pool down, dropping queued (not yet running) work.

        ``cancel_futures`` bounds the teardown after an abort
        (``fail_fast``, threshold, :class:`SimulatedCrash`); waiting
        for the in-flight units keeps interpreter shutdown clean.
        """
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
