"""Per-layer spans for the benchmark's traced run.

Spans are recorded from this benchmark's own code.  In a traced child,
:meth:`Layers.install` wraps each layer's public entry points where
their callers look them up (a class attribute, or a module global the
caller reads at call time), so each call opens a span in one
:class:`repro.obs.Tracer`.  Nothing in ``src/`` changes and only the
traced child is affected; :meth:`Layers.uninstall` restores the
originals.

A span's layer is the part of its name before the first dot.  The
roots this benchmark opens around each set-up and timed job
(``run.*``) and the pipeline's own orchestration (``pipeline.*``) make
up the ``runner``: the job time no layer span covers.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import threading
from collections import Counter, defaultdict
from typing import Any, Callable, Iterable

from repro.obs import Tracer, self_times

from harness import median

#: (module, attribute, span name) for every wrapped entry point.
ENTRY_POINTS: tuple[tuple[str, str, str], ...] = (
    ("repro.pipeline.stages", "OcrStage.process", "ocr.document"),
    ("repro.ocr.scanner", "Scanner.scan", "ocr.scan"),
    ("repro.ocr.engine", "OcrEngine.recognize", "ocr.recognize"),
    ("repro.pipeline.stages", "apply_fallback", "ocr.fallback"),
    ("repro.ocr.correction", "OcrCorrector.correct_lines", "ocr.correct"),
    ("repro.parsing.base", "ParserRegistry.resolve", "parsing.resolve"),
    ("repro.parsing.base", "ReportParser.parse", "parsing.parse"),
    ("repro.pipeline.runner", "parse_accident_report", "parsing.accident"),
    ("repro.pipeline.runner", "normalize_records", "parsing.normalize"),
    ("repro.pipeline.runner", "filter_records", "parsing.filter"),
    ("repro.pipeline.runner", "normalize_accident",
     "parsing.normalize_accident"),
    ("repro.nlp.dictionary", "FailureDictionary.build", "nlp.dictionary"),
    ("repro.nlp.tagger", "VotingTagger.tag_batch", "nlp.tag"),
    ("repro.pipeline.runner", "evaluate_tagger", "nlp.evaluate"),
    ("repro.pipeline.checkpoint", "CheckpointStore.open", "checkpoint.open"),
    ("repro.pipeline.checkpoint", "CheckpointStore.append",
     "checkpoint.append"),
    ("repro.pipeline.checkpoint", "CheckpointStore.append_many",
     "checkpoint.append"),
    ("repro.pipeline.checkpoint", "CheckpointStore.sync", "checkpoint.sync"),
    ("repro.pipeline.checkpoint", "CheckpointStore.close",
     "checkpoint.close"),
    ("repro.pipeline.checkpoint", "CheckpointStore.write_artifact",
     "checkpoint.artifact"),
    ("repro.pipeline.checkpoint", "CheckpointStore.load_artifact",
     "checkpoint.artifact"),
    ("repro.pipeline.ingest", "process_corpus", "pipeline.process"),
    ("repro.pipeline.ingest", "document_digest", "ingest.digest"),
    ("repro.pipeline.ingest", "_surgery", "ingest.surgery"),
    ("repro.pipeline.ingest", "_write_state", "ingest.state"),
    ("repro.pipeline.store", "FailureDatabase.save", "store.save"),
    ("repro.query.index", "DatabaseIndex.build", "query.index_build"),
    ("repro.query.engine", "QueryEngine.execute", "engine.execute"),
    ("repro.query.engine", "QueryEngine.scope", "engine.scope"),
    ("repro.query.engine", "to_jsonable", "engine.jsonable"),
    ("repro.query.server", "_Handler.do_GET", "server.request"),
)

#: Entry points that call themselves; only the outermost call is a span.
_REENTRANT = frozenset({"engine.jsonable"})

#: Layers in pipeline order, for the accounting table.
LAYER_ORDER = ("synth", "ocr", "parsing", "nlp", "checkpoint", "ingest",
               "store", "query", "server", "engine", "kernels", "runner")


def layer_of(name: str) -> str:
    """The layer a span's self time belongs to."""
    if name.startswith(("run.", "pipeline.")):
        return "runner"
    return name.split(".", 1)[0]


class Layers:
    """One traced child's tracer, wrappers and fsync counts."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        #: fsync calls, by the layer of the innermost open span.
        self.fsyncs: Counter = Counter()
        self._local = threading.local()
        self._undo: list[Callable[[], None]] = []

    def _names(self) -> list[str]:
        names = getattr(self._local, "names", None)
        if names is None:
            names = self._local.names = []
        return names

    def span(self, name: str, kind: str = "span") -> "_Scope":
        """A span opened by the benchmark itself (a root or a call)."""
        return _Scope(self, name, kind)

    def wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        tracer = self.tracer
        names_of = self._names
        reentrant = name in _REENTRANT

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            names = names_of()
            if reentrant and names and names[-1] == name:
                return fn(*args, **kwargs)
            names.append(name)
            try:
                with tracer.span(name):
                    return fn(*args, **kwargs)
            finally:
                names.pop()

        return traced

    def install(self) -> None:
        """Wrap every entry point, the kernels, and ``os.fsync``."""
        for module_name, attribute, span_name in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner_name, _, member = attribute.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            self._replace(owner, member, span_name)
        from repro.analysis.kernels import KERNELS

        originals = dict(KERNELS)
        for (metric, group_by), kernel in originals.items():
            KERNELS[(metric, group_by)] = self.wrap(
                kernel, f"kernels.{metric}.{group_by or 'all'}")
        self._undo.append(lambda: KERNELS.update(originals))

        real_fsync = os.fsync
        names_of = self._names

        def counted_fsync(fd: int) -> None:
            names = names_of()
            self.fsyncs[layer_of(names[-1]) if names else "runner"] += 1
            real_fsync(fd)

        os.fsync = counted_fsync
        self._undo.append(lambda: setattr(os, "fsync", real_fsync))

    def _replace(self, owner: Any, member: str, span_name: str) -> None:
        raw = (owner.__dict__[member] if isinstance(owner, type)
               else getattr(owner, member))
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(self.wrap(raw.__func__, span_name))
        else:
            wrapped = self.wrap(raw, span_name)
        setattr(owner, member, wrapped)
        self._undo.append(lambda: setattr(owner, member, raw))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def spans(self) -> list[dict[str, Any]]:
        return self.tracer.spans()


class _Scope:
    __slots__ = ("_layers", "_names", "_name", "_inner")

    def __init__(self, layers: Layers, name: str, kind: str) -> None:
        self._layers = layers
        self._name = name
        self._inner = layers.tracer.span(name, kind)

    def __enter__(self) -> dict[str, Any]:
        self._names = self._layers._names()
        self._names.append(self._name)
        return self._inner.__enter__()

    def __exit__(self, *exc_info: Any) -> bool:
        try:
            return self._inner.__exit__(*exc_info)
        finally:
            self._names.pop()


# ----------------------------------------------------------------------
# Span accounting.
# ----------------------------------------------------------------------

def trees(spans: list[dict[str, Any]]) -> list[list[dict[str, Any]]]:
    """Each root span followed by all of its descendants."""
    children: dict[int, list[dict[str, Any]]] = defaultdict(list)
    roots = []
    for span in spans:
        parent = span.get("parent_id")
        if parent is None:
            roots.append(span)
        else:
            children[parent].append(span)
    out = []
    for root in roots:
        tree, pending = [], [root]
        while pending:
            span = pending.pop()
            tree.append(span)
            pending.extend(children.get(span["span_id"], ()))
        out.append(tree)
    return out


def self_by_name(tree: list[dict[str, Any]]) -> dict[str, float]:
    """Self seconds per span name (``repro.obs.self_times`` rows)."""
    return {row["name"]: row["self_s"] for row in self_times(tree)}


def self_by_layer(tree: list[dict[str, Any]]) -> dict[str, float]:
    """Self seconds per layer; sums to the root's wall time."""
    out: dict[str, float] = defaultdict(float)
    for name, seconds in self_by_name(tree).items():
        out[layer_of(name)] += seconds
    return dict(out)


def renumber(spans: Iterable[dict[str, Any]],
             offset: int) -> list[dict[str, Any]]:
    """Spans of one child with ids shifted past ``offset``, so spans
    from several children merge into one trace."""
    out = []
    for span in spans:
        span = dict(span)
        span["span_id"] += offset
        if span.get("parent_id") is not None:
            span["parent_id"] += offset
        out.append(span)
    return out


class NoLayers:
    """The untraced stand-in: spans are free no-ops, nothing recorded."""

    fsyncs: Counter = Counter()

    def span(self, name: str, kind: str = "span") -> Any:
        return contextlib.nullcontext()

    def spans(self) -> list[dict[str, Any]]:
        return []


def open_layers(traced: bool) -> Layers | NoLayers:
    """A traced child's installed :class:`Layers`, else a no-op."""
    if not traced:
        return NoLayers()
    layers = Layers()
    layers.install()
    return layers


# ----------------------------------------------------------------------
# Per-layer metrics.
# ----------------------------------------------------------------------

#: Per-layer time metric -> the span names whose self time it sums.
SPAN_METRICS: dict[str, tuple[str, ...]] = {
    "synth.busy_s": ("synth.generate",),
    "ocr.recognize_s": ("ocr.recognize",),
    "ocr.correct_s": ("ocr.correct",),
    "ocr.scan_fallback_s": ("ocr.scan", "ocr.fallback"),
    "parsing.parse_s": ("parsing.resolve", "parsing.parse",
                        "parsing.accident"),
    "parsing.normalize_s": ("parsing.normalize", "parsing.filter",
                            "parsing.normalize_accident"),
    "nlp.dictionary_s": ("nlp.dictionary",),
    "nlp.tag_s": ("nlp.tag",),
    "nlp.evaluate_s": ("nlp.evaluate",),
    "ingest.surgery_s": ("ingest.surgery",),
    "store.save_s": ("store.save",),
    "store.load_s": ("store.load",),
    "query.index_build_s": ("query.index_build",),
}

#: Every per-layer metric the traced run emits, in report order.
PER_LAYER: tuple[str, ...] = (
    "op.p50_ms", "op.p90_ms", "op.throughput",
    "synth.busy_s",
    "ocr.recognize_s", "ocr.correct_s", "ocr.scan_fallback_s",
    "ocr.max_document_s", "ocr.lines", "ocr.fallback_pages",
    "parsing.parse_s", "parsing.normalize_s", "parsing.records",
    "parsing.unparsed_lines",
    "nlp.dictionary_s", "nlp.tag_s", "nlp.evaluate_s",
    "nlp.dictionary_entries", "nlp.token_cache_hit_ratio",
    "pipeline.runner_self_s",
    "checkpoint.busy_s", "checkpoint.bytes_written", "checkpoint.fsyncs",
    "ingest.delta_documents", "ingest.surgery_s",
    "store.save_s", "store.load_s", "store.bytes", "query.index_build_s",
    "cache.hit_ratio", "cache.evictions",
    "engine.execute_us", "engine.scope_us", "kernels.busy_us",
    "engine.jsonable_us",
    "server.handler_us", "server.http_self_us", "client.overhead_us",
    "server.p99_ms", "server.p999_ms",
    "trace.overhead_pct",
)

#: The job and request times: the end-to-end metrics ``job_s``,
#: ``rps``, ``p50_ms`` and ``p90_ms``, which on this box do not repeat
#: within a 10% bound and so are reported among the per-layer metrics.
OP_METRICS = ("op.p50_ms", "op.p90_ms", "op.throughput")


def _moves(metrics: tuple[str, ...],
           workloads: tuple[str, ...]) -> tuple[tuple[str, str], ...]:
    return tuple((metric, workload) for metric in metrics
                 for workload in workloads)


_JOB = ("op.p50_ms",)
_REQUEST = ("op.throughput", "op.p50_ms")
_SERVE = ("serve-hot", "serve-filtered")

#: Per-layer metric -> the (metric, workload) pairs a change to its
#: layer should move: an end-to-end metric, or one of
#: :data:`OP_METRICS`.  A per-layer entry of BENCHMARK.json holds only
#: its name, unit and direction, so the map lives here.  The
#: :data:`OP_METRICS` themselves and ``trace.overhead_pct`` (a property
#: of the measurement) have none.
MOVES: dict[str, tuple[tuple[str, str], ...]] = {
    "synth.busy_s": _moves(("setup_s",), ("build", "ingest")),
    **dict.fromkeys(
        ("ocr.recognize_s", "ocr.correct_s", "ocr.scan_fallback_s",
         "ocr.max_document_s", "ocr.lines", "ocr.fallback_pages",
         "parsing.parse_s", "parsing.normalize_s", "parsing.records",
         "parsing.unparsed_lines", "store.save_s"),
        _moves(_JOB, ("build",))),
    **dict.fromkeys(
        ("nlp.dictionary_s", "nlp.tag_s", "nlp.evaluate_s",
         "nlp.dictionary_entries", "nlp.token_cache_hit_ratio",
         "pipeline.runner_self_s"),
        _moves(_JOB, ("ingest", "build"))),
    **dict.fromkeys(
        ("checkpoint.busy_s", "checkpoint.bytes_written",
         "checkpoint.fsyncs", "ingest.delta_documents", "ingest.surgery_s"),
        _moves(_JOB + ("setup_s",), ("ingest",))),
    **dict.fromkeys(
        ("store.load_s", "store.bytes", "query.index_build_s"),
        _moves(_JOB, ("build",))
        + _moves(("setup_s", "peak_rss_mb"), _SERVE)),
    **dict.fromkeys(
        ("cache.hit_ratio", "cache.evictions", "engine.execute_us",
         "engine.scope_us", "kernels.busy_us", "engine.jsonable_us"),
        _moves(_REQUEST, ("serve-filtered",))),
    **dict.fromkeys(
        ("server.handler_us", "server.http_self_us", "client.overhead_us",
         "server.p99_ms", "server.p999_ms"),
        _moves(_REQUEST, ("serve-hot",))),
}


def _first_phase(phases: list[list[list[dict[str, Any]]]],
                 present: Callable[[list[dict[str, Any]]], bool],
                 value: Callable[[list[dict[str, Any]]], float]) -> float:
    """Median ``value`` over the trees of the first phase in which any
    tree runs the layer (0.0 when no traced tree does)."""
    for trees_ in phases:
        values = [value(tree) for tree in trees_ if present(tree)]
        if values:
            return median(values)
    return 0.0


def span_metrics(phases: list[list[list[dict[str, Any]]]],
                 ) -> dict[str, float]:
    """Per-layer times from traced trees, phases in preference order.

    A job tree (one timed operation) is preferred over a set-up tree:
    ``ocr.recognize_s`` of ``ingest`` is the delta's OCR, not the base
    ingest's, while ``synth.busy_s`` (set-up only) still has a value.
    """
    out: dict[str, float] = {}

    def names_in(tree: list[dict[str, Any]]) -> set[str]:
        return {span["name"] for span in tree}

    for metric, names in SPAN_METRICS.items():
        out[metric] = _first_phase(
            phases,
            lambda tree, names=names: not names_in(tree).isdisjoint(names),
            lambda tree, names=names: sum(
                self_by_name(tree).get(name, 0.0) for name in names))
    out["ocr.max_document_s"] = _first_phase(
        phases, lambda tree: "ocr.document" in names_in(tree),
        lambda tree: max(span["duration_s"] for span in tree
                         if span["name"] == "ocr.document"))
    out["checkpoint.busy_s"] = _first_phase(
        phases, lambda tree: any(name.startswith("checkpoint.")
                                 for name in names_in(tree)),
        lambda tree: self_by_layer(tree).get("checkpoint", 0.0))
    out["pipeline.runner_self_s"] = _first_phase(
        phases, lambda tree: any(name.startswith("pipeline.")
                                 for name in names_in(tree)),
        lambda tree: self_by_layer(tree).get("runner", 0.0))
    return out


def request_metrics(spans: list[dict[str, Any]]) -> dict[str, float]:
    """Per-request server-side times (microseconds) from request trees."""
    requests = [tree for tree in trees(spans)
                if tree[0]["name"] == "server.request"]
    if not requests:
        return {}
    count = len(requests)
    rows = self_times([span for tree in requests for span in tree])
    total = {row["name"]: row["total_s"] for row in rows}
    own = {row["name"]: row["self_s"] for row in rows}
    handler = total["server.request"] / count
    execute = total.get("engine.execute", 0.0) / count
    return {
        "server.handler_us": handler * 1e6,
        "engine.execute_us": execute * 1e6,
        "engine.scope_us": own.get("engine.scope", 0.0) / count * 1e6,
        "kernels.busy_us": sum(seconds for name, seconds in own.items()
                               if name.startswith("kernels.")) / count * 1e6,
        "engine.jsonable_us": own.get("engine.jsonable", 0.0) / count * 1e6,
        "server.http_self_us": (handler - execute) * 1e6,
    }


def accounting(trees_: list[list[dict[str, Any]]], unit: str = "s",
               ) -> list[str]:
    """Mean self time per layer across trees, with its share of the
    root's wall time; the rows sum to the wall time."""
    if not trees_:
        return []
    scale = {"s": 1.0, "us": 1e6}[unit]
    per_layer: dict[str, float] = defaultdict(float)
    wall = 0.0
    for tree in trees_:
        wall += tree[0]["duration_s"]
        for layer, seconds in self_by_layer(tree).items():
            per_layer[layer] += seconds
    count = len(trees_)
    wall /= count
    lines = [f"    {'layer':<32} {'self ' + unit:>12} {'share':>7}"]
    for layer in sorted(per_layer, key=lambda name: (
            LAYER_ORDER.index(name) if name in LAYER_ORDER
            else len(LAYER_ORDER), name)):
        seconds = per_layer[layer] / count
        label = ("runner (pipeline.runner_self_s)" if layer == "runner"
                 else layer)
        lines.append(f"    {label:<32} {seconds * scale:>12.4f} "
                     f"{seconds / wall if wall else 0.0:>7.1%}")
    total = sum(per_layer.values()) / count
    lines.append(f"    {'sum':<32} {total * scale:>12.4f} "
                 f"{total / wall if wall else 0.0:>7.1%}  "
                 f"(wall {wall * scale:.4f} {unit}, {count} traced)")
    return lines
