"""Hierarchical structured tracing (run → stage → unit spans).

A :class:`Tracer` records **spans**: named intervals with monotonic
(``time.perf_counter``) timings, a parent link, free-form attributes,
and an ``ok``/``error`` status.  The pipeline opens one ``run`` span,
a ``stage`` span per stage, and (when tracing is on) a ``unit`` span
per document/record around that unit's own work; a unit restored from
a checkpoint is recorded with zero duration.

Persistence is JSONL, one completed span per line, published with the
checkpoint layer's atomic write primitive: the tracer buffers
completed spans in memory and each :meth:`Tracer.flush` atomically
replaces the trace file with the full sequence so far.  A crash at
any instant therefore leaves a **valid JSONL prefix** of the run on
disk — exactly the durability story the checkpoint journals tell —
and the runner flushes at every stage boundary.

The disabled path is :data:`NULL_TRACER`: ``span`` hands back a
shared no-op context manager and ``record``/``flush`` return
immediately, so instrumentation costs one attribute check when
tracing is off.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Any

class _NullSpan:
    """Reusable no-op context manager for the disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> dict[str, Any]:
        return {}

    def __exit__(self, *exc_info: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every operation is a near-free no-op."""

    __slots__ = ()
    enabled = False

    def span(self, name: str, kind: str = "span",
             **attrs: Any) -> _NullSpan:
        """The shared no-op span scope."""
        return _NULL_SPAN

    def record(self, name: str, kind: str, duration_s: float,
               **attrs: Any) -> None:
        """Discard an externally measured span."""
        return None

    def flush(self) -> None:
        """Nothing to publish."""
        return None

    def close(self) -> None:
        """Nothing to tear down."""
        return None


#: Shared disabled tracer (callers hold this instead of ``None`` so
#: ``tracer.enabled`` is always a valid check).
NULL_TRACER = NullTracer()


class _SpanScope:
    """Context manager for one live span."""

    __slots__ = ("_tracer", "_name", "_kind", "attrs", "_span_id",
                 "_parent_id", "_start")

    def __init__(self, tracer: "Tracer", name: str, kind: str,
                 attrs: dict[str, Any]) -> None:
        self._tracer = tracer
        self._name = name
        self._kind = kind
        self.attrs = attrs

    def __enter__(self) -> dict[str, Any]:
        self._span_id, self._parent_id = self._tracer._enter()
        self._start = time.perf_counter()
        return self.attrs  # mutate to attach attributes to the span

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        duration = time.perf_counter() - self._start
        # SimulatedCrash (a BaseException) still closes the span as an
        # error, so a crash-killed trace names its last open work.
        self._tracer._exit(
            self._span_id, self._parent_id, self._name, self._kind,
            self._start, duration,
            "ok" if exc_type is None else "error", self.attrs)
        return False


class Tracer:
    """Collects hierarchical spans; optionally persists them as JSONL.

    Parent/child structure follows the per-thread call stack: a span
    opened while another is live on the same thread becomes its child.
    Span ids are sequential (assigned under the lock), so two traces
    of the same serial run are structurally identical.
    """

    enabled = True

    def __init__(self, path: str | Path | None = None) -> None:
        self._path = Path(path) if path is not None else None
        self._lock = threading.Lock()
        self._records: list[dict[str, Any]] = []
        # Each record's JSONL line, serialized once at record time so
        # a flush at every stage boundary stays O(new spans), not
        # O(all spans x boundaries).
        self._lines: list[str] = []
        self._next_id = 1
        self._local = threading.local()
        self._origin = time.perf_counter()
        self._dirty = False

    @property
    def path(self) -> Path | None:
        """Where :meth:`flush` publishes the JSONL trace (or None)."""
        return self._path

    # ------------------------------------------------------------------
    # Span lifecycle.
    # ------------------------------------------------------------------

    def span(self, name: str, kind: str = "span",
             **attrs: Any) -> _SpanScope:
        """A context manager recording one span around its body."""
        return _SpanScope(self, name, kind, attrs)

    def record(self, name: str, kind: str, duration_s: float,
               **attrs: Any) -> None:
        """Record an already-measured span (e.g. a restored unit).

        The span is parented to the calling thread's current span and
        stamped at the current monotonic offset; ``duration_s`` is the
        externally measured wall time.
        """
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            self._append(self._line(
                span_id, parent, name, kind,
                time.perf_counter() - duration_s, duration_s, "ok",
                attrs))

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self) -> tuple[int, int | None]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        stack.append(span_id)
        return span_id, parent

    def _exit(self, span_id: int, parent_id: int | None, name: str,
              kind: str, start: float, duration: float, status: str,
              attrs: dict[str, Any]) -> None:
        stack = self._stack()
        if stack and stack[-1] == span_id:
            stack.pop()
        with self._lock:
            self._append(self._line(
                span_id, parent_id, name, kind, start, duration,
                status, attrs))

    def _append(self, record: dict[str, Any]) -> None:
        """Store a completed record and its pre-serialized line.

        Caller holds the lock.
        """
        self._records.append(record)
        self._lines.append(json.dumps(record, sort_keys=True) + "\n")
        self._dirty = True

    def _line(self, span_id: int, parent_id: int | None, name: str,
              kind: str, start: float, duration: float, status: str,
              attrs: dict[str, Any]) -> dict[str, Any]:
        line = {
            "span_id": span_id,
            "parent_id": parent_id,
            "name": name,
            "kind": kind,
            "start_s": round(start - self._origin, 9),
            "duration_s": round(duration, 9),
            "status": status,
        }
        if attrs:
            line["attrs"] = attrs
        return line

    # ------------------------------------------------------------------
    # Introspection and persistence.
    # ------------------------------------------------------------------

    def spans(self) -> list[dict[str, Any]]:
        """Completed spans so far (a copy, oldest first)."""
        with self._lock:
            return list(self._records)

    def flush(self) -> None:
        """Atomically publish every completed span as JSONL.

        Write-temp + fsync + rename (the checkpoint primitive): a
        reader — or a resumed run — only ever sees a complete, valid
        JSONL file.  Cheap when nothing changed since the last flush.
        """
        if self._path is None:
            return
        with self._lock:
            if not self._dirty:
                return
            text = "".join(self._lines)
            self._dirty = False
        # Imported lazily: the pipeline package imports this module's
        # package (via the runner), so a top-level import would cycle.
        from ..pipeline.checkpoint import atomic_write_text

        self._path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(self._path, text)

    def close(self) -> None:
        """Final flush (idempotent)."""
        self.flush()


# ----------------------------------------------------------------------
# Saved-trace analysis (the ``repro trace`` CLI verb).
# ----------------------------------------------------------------------

#: The JSON types :meth:`Tracer._line` writes, per span field.
_SPAN_FIELDS: dict[str, tuple[type, ...]] = {
    "span_id": (int,), "parent_id": (int, type(None)),
    "duration_s": (int, float), "name": (str,), "kind": (str,),
    "status": (str,), "attrs": (dict,),
}


def _is_span(record: Any) -> bool:
    """Whether ``record`` has a ``span_id`` and every span field it
    carries has the type the tracer writes (a bool is no number)."""
    return (isinstance(record, dict) and "span_id" in record
            and all(type(value) is not bool
                    and isinstance(value, _SPAN_FIELDS[key])
                    for key, value in record.items()
                    if key in _SPAN_FIELDS))


def load_trace(path: str | Path) -> list[dict[str, Any]]:
    """Read a JSONL trace file, skipping every line that is not a span.

    A trace flushed through :meth:`Tracer.flush` is always fully
    valid; tolerance here covers hand-truncated files and foreign
    producers: a line that is not UTF-8, not JSON, or not a span
    whose fields have the tracer's types is skipped.
    """
    spans: list[dict[str, Any]] = []
    with open(path, "rb") as handle:
        for line in handle:
            try:
                record = json.loads(line.decode("utf-8"))
            except ValueError:  # UnicodeDecodeError or JSONDecodeError
                continue
            if _is_span(record):
                spans.append(record)
    return spans


def self_times(spans: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Aggregate spans into a self-time table, hottest first.

    Self time is a span's duration minus its direct children's — the
    classic profiler decomposition, so the table's self column sums
    to (roughly) the run's wall clock.  Unit spans are grouped under
    their stage (``<stage> units``); run/stage spans group by name.
    """
    child_time: dict[int, float] = {}
    for span in spans:
        parent = span.get("parent_id")
        if parent is not None:
            child_time[parent] = (child_time.get(parent, 0.0)
                                  + span.get("duration_s", 0.0))
    rows: dict[tuple[str, str], dict[str, Any]] = {}
    for span in spans:
        kind = span.get("kind", "span")
        if kind == "unit":
            stage = (span.get("attrs") or {}).get("stage", "?")
            key = (kind, f"{stage} units")
        else:
            key = (kind, span.get("name", "?"))
        row = rows.get(key)
        if row is None:
            row = rows[key] = {"name": key[1], "kind": kind,
                               "count": 0, "total_s": 0.0,
                               "self_s": 0.0, "errors": 0}
        duration = span.get("duration_s", 0.0)
        row["count"] += 1
        row["total_s"] += duration
        row["self_s"] += max(
            0.0, duration - child_time.get(span.get("span_id"), 0.0))
        if span.get("status") == "error":
            row["errors"] += 1
    return sorted(rows.values(),
                  key=lambda r: (-r["self_s"], r["name"]))
