"""Thread-safe metrics registry (counters, gauges, histograms).

A zero-dependency, Prometheus-compatible metrics substrate for the
pipeline and the query server.  Design constraints, in order:

* **No-op cheap when unused.**  Nothing in this module is touched by a
  run with metrics disabled: a pipeline run renders its metrics once,
  when it ends, from its diagnostics
  (:func:`repro.pipeline.stages.render_metrics`), and only when asked.
* **Exact under concurrency.**  Every mutation happens under the
  owning metric's lock, so eight threads incrementing one counter
  produce the exact sum (verified in ``tests/test_obs.py``).
* **Mergeable.**  :meth:`MetricsRegistry.dump` is a picklable snapshot
  that :meth:`MetricsRegistry.merge` folds in additively: a pre-fork
  serving worker's ``/metrics`` scrape merges every sibling's dump,
  and a finished pipeline run folds its rendered registry into the
  process-global one.
* **Stable names.**  Exposition names are module constants; tests pin
  them so dashboards never silently break.

Histograms use **fixed** bucket boundaries (:data:`DEFAULT_BUCKETS`
for latencies): merged histograms from different processes therefore
always line up bucket-for-bucket.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Iterable, Mapping

# ----------------------------------------------------------------------
# Stable metric names (pinned by tests — treat as public API).
# ----------------------------------------------------------------------

#: Pipeline: per-stage wall time.
STAGE_DURATION = "repro_stage_duration_seconds"
#: Pipeline: units of work processed per stage (computed or restored).
UNITS_TOTAL = "repro_pipeline_units_total"
#: Resilience: per-stage unexpected failures.
STAGE_ERRORS_TOTAL = "repro_stage_errors_total"
#: Resilience: degraded-mode fallbacks taken.
DEGRADATIONS_TOTAL = "repro_degradations_total"
#: Resilience: units dead-lettered to quarantine.
QUARANTINED_TOTAL = "repro_quarantined_total"
#: NLP: token-memo hits/misses (see :mod:`repro.nlp.textcache`).
TOKEN_CACHE_HITS = "repro_token_cache_hits_total"
TOKEN_CACHE_MISSES = "repro_token_cache_misses_total"
#: Data quality: OCR pages sent to manual transcription.
OCR_FALLBACK_PAGES = "repro_ocr_fallback_pages_total"
#: Data quality: report lines no parser rule matched.
UNPARSED_LINES = "repro_unparsed_lines_total"
#: Server: requests by route and status code.
HTTP_REQUESTS = "repro_http_requests_total"
#: Server: request latency by route.
HTTP_LATENCY = "repro_http_request_seconds"
#: Server (sampled at scrape time from the query-result LRU).
QUERY_CACHE_HITS = "repro_query_cache_hits"
QUERY_CACHE_MISSES = "repro_query_cache_misses"
QUERY_CACHE_EVICTIONS = "repro_query_cache_evictions"
QUERY_CACHE_SIZE = "repro_query_cache_size"
#: Server (sampled at scrape time from the database index).
INDEX_RECORDS = "repro_index_records"
#: Serving: snapshot swaps by outcome (``ok`` / ``quarantined``).
SNAPSHOT_SWAPS = "repro_snapshot_swaps_total"
#: Serving: generation of the currently served snapshot.
SNAPSHOT_GENERATION = "repro_snapshot_generation"
#: Serving: candidate databases quarantined as corrupt.
SNAPSHOT_QUARANTINED = "repro_snapshot_quarantined_total"
#: Serving: requests shed by admission control (503 + Retry-After).
REQUESTS_SHED = "repro_requests_shed_total"
#: Serving: requests that blew their per-request deadline.
REQUEST_TIMEOUTS = "repro_request_timeouts_total"
#: Serving: requests currently being handled (admission gauge).
REQUESTS_INFLIGHT = "repro_requests_inflight"
#: Pre-fork serving: per-worker identity gauge (always 1, labelled by
#: worker id) — the aggregated ``/metrics`` scrape proves which
#: workers contributed by which series are present.
SERVING_WORKER_UP = "repro_serving_worker_up"
#: Pre-fork serving: generation the worker is currently serving.
SERVING_WORKER_GENERATION = "repro_serving_worker_generation"

#: Fixed latency bucket upper bounds in seconds (+Inf is implicit).
DEFAULT_BUCKETS = (0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
                   0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)

_KINDS = ("counter", "gauge", "histogram")


def _escape_label(value: str) -> str:
    """Escape a label value per the Prometheus text exposition rules."""
    return (value.replace("\\", r"\\").replace('"', r"\"")
            .replace("\n", r"\n"))


def _format_value(value: float) -> str:
    """Render a sample value (integers without a trailing ``.0``)."""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


class _Series:
    """One labeled child of a metric — the object hot paths hold.

    Mutations lock the parent metric's lock; reading for exposition
    happens under the same lock, so snapshots are consistent.
    """

    __slots__ = ("_metric", "labelvalues", "value", "bucket_counts",
                 "sum", "count")

    def __init__(self, metric: "Metric",
                 labelvalues: tuple[str, ...]) -> None:
        self._metric = metric
        self.labelvalues = labelvalues
        self.value = 0.0
        if metric.kind == "histogram":
            self.bucket_counts = [0] * len(metric.buckets)
            self.sum = 0.0
            self.count = 0

    def inc(self, amount: float = 1.0) -> None:
        """Add to a counter (or gauge)."""
        with self._metric.lock:
            self.value += amount

    def set(self, value: float) -> None:
        """Set a gauge to an absolute value."""
        with self._metric.lock:
            self.value = value

    def observe(self, value: float) -> None:
        """Record one histogram observation into its fixed buckets."""
        metric = self._metric
        with metric.lock:
            index = bisect_left(metric.buckets, value)
            if index < len(self.bucket_counts):
                self.bucket_counts[index] += 1
            self.sum += value
            self.count += 1


class Metric:
    """One named family of series (shared name/help/kind/labels)."""

    __slots__ = ("name", "kind", "help", "labelnames", "buckets",
                 "lock", "_series")

    def __init__(self, name: str, kind: str, help: str = "",
                 labelnames: tuple[str, ...] = (),
                 buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        if kind not in _KINDS:
            raise ValueError(f"metric kind must be one of {_KINDS}, "
                             f"got {kind!r}")
        self.name = name
        self.kind = kind
        self.help = help
        self.labelnames = tuple(labelnames)
        self.buckets = tuple(buckets) if kind == "histogram" else ()
        self.lock = threading.Lock()
        self._series: dict[tuple[str, ...], _Series] = {}

    def labels(self, *labelvalues: Any) -> _Series:
        """The child series for these label values (auto-created)."""
        key = tuple(str(v) for v in labelvalues)
        if len(key) != len(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes {len(self.labelnames)} "
                f"label value(s) {self.labelnames}, got {len(key)}")
        with self.lock:
            series = self._series.get(key)
            if series is None:
                series = _Series(self, key)
                self._series[key] = series
            return series

    # Label-less convenience: a bare counter/gauge/histogram acts as
    # its own single series.
    def inc(self, amount: float = 1.0) -> None:
        """Increment the label-less series."""
        self.labels().inc(amount)

    def set(self, value: float) -> None:
        """Set the label-less gauge series."""
        self.labels().set(value)

    def observe(self, value: float) -> None:
        """Observe into the label-less histogram series."""
        self.labels().observe(value)

    def _snapshot(self) -> dict[tuple[str, ...], Any]:
        """Series data under the lock (values or histogram triples)."""
        with self.lock:
            if self.kind == "histogram":
                return {key: {"buckets": list(s.bucket_counts),
                              "sum": s.sum, "count": s.count}
                        for key, s in self._series.items()}
            return {key: s.value for key, s in self._series.items()}


class MetricsRegistry:
    """A named collection of metrics with exposition and merge.

    Registration is idempotent: asking twice for the same name returns
    the same :class:`Metric`, and asking with a conflicting kind or
    label set raises — a name means one thing process-wide.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, Metric] = {}

    # ------------------------------------------------------------------
    # Registration.
    # ------------------------------------------------------------------

    def counter(self, name: str, help: str = "",
                labelnames: Iterable[str] = ()) -> Metric:
        """Get or create a monotonically increasing counter."""
        return self._register(name, "counter", help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: Iterable[str] = ()) -> Metric:
        """Get or create a settable gauge."""
        return self._register(name, "gauge", help, labelnames)

    def histogram(self, name: str, help: str = "",
                  labelnames: Iterable[str] = (),
                  buckets: tuple[float, ...] = DEFAULT_BUCKETS,
                  ) -> Metric:
        """Get or create a fixed-bucket histogram."""
        return self._register(name, "histogram", help, labelnames,
                              buckets)

    def _register(self, name: str, kind: str, help: str,
                  labelnames: Iterable[str],
                  buckets: tuple[float, ...] = DEFAULT_BUCKETS,
                  ) -> Metric:
        labelnames = tuple(labelnames)
        with self._lock:
            metric = self._metrics.get(name)
            if metric is not None:
                if (metric.kind != kind
                        or metric.labelnames != labelnames):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{metric.kind} with labels "
                        f"{metric.labelnames}")
                return metric
            metric = Metric(name, kind, help, labelnames, buckets)
            self._metrics[name] = metric
            return metric

    def get(self, name: str) -> Metric | None:
        """The registered metric, or ``None``."""
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> list[str]:
        """Registered metric names, sorted."""
        with self._lock:
            return sorted(self._metrics)

    # ------------------------------------------------------------------
    # Snapshots, merge, exposition.
    # ------------------------------------------------------------------

    def dump(self) -> dict[str, Any]:
        """A mergeable snapshot (tuple-keyed; ships via pickle).

        :meth:`merge` takes it: a finished pipeline run folds its
        rendered metrics into :func:`default_registry` this way, and
        each pre-fork serving worker pickles its dump for the
        aggregated ``/metrics`` scrape.
        """
        with self._lock:
            metrics = list(self._metrics.values())
        return {
            m.name: {
                "kind": m.kind,
                "help": m.help,
                "labelnames": m.labelnames,
                "buckets": m.buckets,
                "series": m._snapshot(),
            }
            for m in metrics
        }

    def merge(self, dump: Mapping[str, Any]) -> None:
        """Fold a :meth:`dump` into this registry (additively).

        Counters and histograms accumulate; gauges adopt the incoming
        value (last writer wins — a gauge is a level, not a total).
        """
        for name, data in dump.items():
            if data["kind"] == "histogram":
                metric = self.histogram(
                    name, data["help"], data["labelnames"],
                    tuple(data["buckets"]))
            elif data["kind"] == "gauge":
                metric = self.gauge(name, data["help"],
                                    data["labelnames"])
            else:
                metric = self.counter(name, data["help"],
                                      data["labelnames"])
            for key, incoming in data["series"].items():
                series = metric.labels(*key)
                with metric.lock:
                    if metric.kind == "histogram":
                        if list(metric.buckets) != list(
                                data["buckets"]):
                            raise ValueError(
                                f"histogram {name!r} bucket layout "
                                "mismatch on merge")
                        for i, n in enumerate(incoming["buckets"]):
                            series.bucket_counts[i] += n
                        series.sum += incoming["sum"]
                        series.count += incoming["count"]
                    elif metric.kind == "gauge":
                        series.value = incoming
                    else:
                        series.value += incoming

    def to_dict(self) -> dict[str, Any]:
        """A JSON-able snapshot (the CLI ``--json`` metrics section)."""
        out: dict[str, Any] = {}
        for name, data in sorted(self.dump().items()):
            series = []
            for key, value in sorted(data["series"].items()):
                labels = dict(zip(data["labelnames"], key))
                if data["kind"] == "histogram":
                    series.append({"labels": labels,
                                   "sum": value["sum"],
                                   "count": value["count"],
                                   "buckets": value["buckets"]})
                else:
                    series.append({"labels": labels, "value": value})
            out[name] = {"type": data["kind"], "series": series}
        return out

    def render_prometheus(self) -> str:
        """The registry in the Prometheus text exposition format."""
        out: list[str] = []
        for name, data in sorted(self.dump().items()):
            if not data["series"]:
                continue
            if data["help"]:
                out.append(f"# HELP {name} {data['help']}")
            out.append(f"# TYPE {name} {data['kind']}")
            labelnames = data["labelnames"]
            for key, value in sorted(data["series"].items()):
                pairs = [f'{ln}="{_escape_label(lv)}"'
                         for ln, lv in zip(labelnames, key)]
                if data["kind"] == "histogram":
                    cumulative = 0
                    for bound, count in zip(data["buckets"],
                                            value["buckets"]):
                        cumulative += count
                        bucket_pairs = pairs + [f'le="{bound!r}"']
                        out.append(
                            f"{name}_bucket"
                            f"{{{','.join(bucket_pairs)}}} "
                            f"{cumulative}")
                    inf_pairs = pairs + ['le="+Inf"']
                    out.append(f"{name}_bucket"
                               f"{{{','.join(inf_pairs)}}} "
                               f"{value['count']}")
                    suffix = f"{{{','.join(pairs)}}}" if pairs else ""
                    out.append(f"{name}_sum{suffix} "
                               f"{_format_value(value['sum'])}")
                    out.append(f"{name}_count{suffix} "
                               f"{value['count']}")
                else:
                    suffix = f"{{{','.join(pairs)}}}" if pairs else ""
                    out.append(f"{name}{suffix} "
                               f"{_format_value(value)}")
        return "\n".join(out) + ("\n" if out else "")


#: Process-global default registry.  A finished pipeline run with
#: ``metrics_enabled`` is folded in here; the query server records its
#: request metrics here (and samples cache/index gauges at scrape
#: time), so one ``/metrics`` scrape shows pipeline + server + cache
#: series.
_DEFAULT = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The shared process-global :class:`MetricsRegistry`."""
    return _DEFAULT
