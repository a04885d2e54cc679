"""The query engine: typed queries over an indexed failure database.

A :class:`Query` is **filter + group-by + metric**:

* metric — what to compute: ``dpm``, ``apm``, ``dpa``, ``count``,
  ``miles``, ``tags``, ``categories``, ``modalities``, ``trend``.
* group_by — how to slice it: ``manufacturer`` (the default for the
  analysis metrics), ``month``, ``year``, ``tag``, ``category``.
* filters — ``manufacturers``, a ``month_from``/``month_to`` range,
  a single fault ``tag`` or failure ``category``.

Every answer is one computation: the kernel of its ``(metric,
group_by)`` pair (:data:`repro.analysis.kernels.KERNELS`, which reuses
the Stage IV :mod:`repro.analysis` functions — the engine never
re-implements the statistics) run over the slice
:meth:`~QueryEngine.scope` assembles from the index, converted to
plain JSON-able data.  Results are memoized in a bounded LRU cache
keyed by ``(database fingerprint, canonical query)``.

Thread safety: the engine is safe for concurrent :meth:`~QueryEngine.
execute` calls — the index is immutable, the scope databases are
per-call, and the cache locks internally.  A new database means a new
engine; :class:`~repro.query.snapshot.SnapshotManager` swaps engines.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import re
import time
from dataclasses import dataclass
from typing import Any, Mapping

from ..analysis.kernels import KERNELS
from ..errors import QueryError
from ..pipeline.checkpoint import canonical_json
from ..pipeline.store import FailureDatabase
from ..taxonomy import FailureCategory, FaultTag
from .cache import LruCache
from .index import DatabaseIndex

#: Every metric the engine serves.
METRICS = ("count", "miles", "dpm", "apm", "dpa", "tags",
           "categories", "modalities", "trend")

#: Every group-by dimension (not all metrics support all of them).
GROUP_BYS = ("manufacturer", "month", "year", "tag", "category")

#: metric -> group_by values it supports (None = ungrouped).
_ALLOWED: dict[str, tuple[str | None, ...]] = {
    "count": (None, "manufacturer", "month", "tag", "category"),
    "miles": (None, "manufacturer", "month"),
    "dpm": ("manufacturer", "month", "year"),
    "apm": ("manufacturer",),
    "dpa": (None, "manufacturer"),
    "tags": ("manufacturer",),
    "categories": ("manufacturer",),
    "modalities": ("manufacturer",),
    "trend": ("manufacturer",),
}

#: metric -> group_by filled in when the query leaves it unset.
_DEFAULT_GROUP_BY = {
    "dpm": "manufacturer",
    "apm": "manufacturer",
    "tags": "manufacturer",
    "categories": "manufacturer",
    "modalities": "manufacturer",
    "trend": "manufacturer",
}

_MONTH_RE = re.compile(r"^\d{4}-\d{2}$")

_MISS = object()


def _valid_month(value: str | None, name: str) -> None:
    if value is not None and not _MONTH_RE.match(value):
        raise QueryError(
            f"{name} must be a YYYY-MM month, got {value!r}")


@dataclass(frozen=True)
class Query:
    """One typed, canonicalizable query (filter + group-by + metric).

    Construction validates every field and raises
    :class:`~repro.errors.QueryError` on anything malformed, so a
    ``Query`` that exists is always executable.
    """

    metric: str
    group_by: str | None = None
    #: Restrict to these manufacturers (normalized: sorted, deduped).
    manufacturers: tuple[str, ...] | None = None
    #: Inclusive ``YYYY-MM`` month range; accidents without a month
    #: are excluded whenever a range is set.
    month_from: str | None = None
    month_to: str | None = None
    #: Restrict disengagements to one fault tag (accidents and
    #: mileage are unaffected — rates keep their full denominators).
    tag: str | None = None
    #: Restrict disengagements to one root failure category.
    category: str | None = None

    def __post_init__(self) -> None:
        if self.metric not in METRICS:
            raise QueryError(
                f"unknown metric {self.metric!r}; "
                f"known: {', '.join(METRICS)}")
        if self.group_by is None:
            object.__setattr__(self, "group_by",
                               _DEFAULT_GROUP_BY.get(self.metric))
        if self.group_by not in _ALLOWED[self.metric]:
            supported = ", ".join(
                str(g) for g in _ALLOWED[self.metric])
            raise QueryError(
                f"metric {self.metric!r} cannot group by "
                f"{self.group_by!r}; supported: {supported}")
        if self.manufacturers is not None:
            if isinstance(self.manufacturers, str):
                raise QueryError(
                    "manufacturers must be a sequence of names, "
                    f"got the string {self.manufacturers!r}")
            object.__setattr__(
                self, "manufacturers",
                tuple(sorted(set(self.manufacturers))))
        _valid_month(self.month_from, "month_from")
        _valid_month(self.month_to, "month_to")
        if (self.month_from and self.month_to
                and self.month_from > self.month_to):
            raise QueryError(
                f"empty month range: month_from {self.month_from!r} "
                f"is after month_to {self.month_to!r}")
        if self.tag is not None and not _is_value(FaultTag, self.tag):
            raise QueryError(
                f"unknown fault tag {self.tag!r}; known: "
                f"{', '.join(t.value for t in FaultTag)}")
        if self.category is not None and not _is_value(
                FailureCategory, self.category):
            raise QueryError(
                f"unknown failure category {self.category!r}; known: "
                f"{', '.join(c.value for c in FailureCategory)}")

    @property
    def filtered(self) -> bool:
        """Whether any filter narrows the database."""
        return (self.manufacturers is not None
                or self.month_from is not None
                or self.month_to is not None
                or self.tag is not None
                or self.category is not None)

    def to_dict(self) -> dict[str, Any]:
        """JSON-able form (only the fields that are set)."""
        out: dict[str, Any] = {"metric": self.metric}
        if self.group_by is not None:
            out["group_by"] = self.group_by
        if self.manufacturers is not None:
            out["manufacturers"] = list(self.manufacturers)
        for key in ("month_from", "month_to", "tag", "category"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out

    def canonical(self) -> str:
        """Deterministic encoding — the cache-key half the query
        contributes (the database fingerprint is the other half)."""
        return canonical_json(self.to_dict())

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Query":
        """Build and validate a query from decoded JSON."""
        if not isinstance(data, Mapping):
            raise QueryError(
                f"query must be a JSON object, got "
                f"{type(data).__name__}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise QueryError(
                f"unknown query field(s): {', '.join(unknown)}; "
                f"known: {', '.join(sorted(known))}")
        if "metric" not in data:
            raise QueryError("query is missing the 'metric' field")
        kwargs = dict(data)
        manufacturers = kwargs.get("manufacturers")
        if isinstance(manufacturers, str):
            kwargs["manufacturers"] = (manufacturers,)
        elif manufacturers is not None:
            kwargs["manufacturers"] = tuple(manufacturers)
        return cls(**kwargs)


def _is_value(enum_cls, value: str) -> bool:
    try:
        enum_cls(value)
    except ValueError:
        return False
    return True


# ----------------------------------------------------------------------
# JSON conversion.
# ----------------------------------------------------------------------


def to_jsonable(value: Any) -> Any:
    """Convert analysis output (dataclasses, Enums, non-string dict
    keys) into plain JSON-able data.

    Non-finite floats become ``None`` — strict JSON has no
    ``Infinity``/``NaN``, and every consumer of a rate understands a
    null better than a parse error.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: to_jsonable(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, enum.Enum):
        return to_jsonable(value.value)
    if isinstance(value, Mapping):
        return {_jsonable_key(key): to_jsonable(item)
                for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [to_jsonable(item) for item in value]
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    return value


def _jsonable_key(key: Any) -> str:
    if isinstance(key, enum.Enum):
        key = key.value
    return key if isinstance(key, str) else str(key)


# ----------------------------------------------------------------------
# Results.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class QueryResult:
    """One executed query: its provenance and its JSON-able value.

    ``value`` may be shared with the cache — treat it as read-only.
    """

    query: Query
    #: Fingerprint of the database snapshot that answered the query.
    fingerprint: str
    #: Whether the value came from the result cache.
    cached: bool
    elapsed_ms: float
    value: Any

    def to_dict(self) -> dict[str, Any]:
        """The ``/v1/query`` response body."""
        return {
            "query": self.query.to_dict(),
            "fingerprint": self.fingerprint,
            "cached": self.cached,
            "elapsed_ms": self.elapsed_ms,
            "result": self.value,
        }


# ----------------------------------------------------------------------
# The engine.
# ----------------------------------------------------------------------


class QueryEngine:
    """Executes :class:`Query` objects against one failure database.

    The database is treated as an immutable snapshot: the index is
    built once in the constructor and every result is cached under the
    snapshot's content fingerprint.  A new database means a new
    engine; :class:`~repro.query.snapshot.SnapshotManager` swaps
    engines.
    """

    def __init__(self, db: FailureDatabase, *,
                 cache_size: int = 256) -> None:
        self._db = db
        self._index = DatabaseIndex.build(db)
        self._cache = LruCache(cache_size)

    @property
    def db(self) -> FailureDatabase:
        """The underlying database."""
        return self._db

    @property
    def index(self) -> DatabaseIndex:
        """The index built over the database."""
        return self._index

    @property
    def fingerprint(self) -> str:
        """Content hash of the indexed snapshot."""
        return self._index.fingerprint

    def stats(self) -> dict[str, Any]:
        """JSON-able engine statistics (the ``/v1/stats`` body)."""
        index = self._index
        return {
            "fingerprint": index.fingerprint,
            "index": index.summary(),
            "cache": self._cache.stats().to_dict(),
        }

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------

    def execute(self, query: Query | Mapping[str, Any]) -> QueryResult:
        """Execute (or serve from cache) one query.

        The result is cached under the snapshot's fingerprint and the
        canonical query.  A new database means a new engine;
        :class:`~repro.query.snapshot.SnapshotManager` swaps engines.
        """
        if not isinstance(query, Query):
            query = Query.from_dict(query)
        started = time.perf_counter()
        fingerprint = self._index.fingerprint
        key = (fingerprint, query.canonical())
        value = self._cache.get(key, _MISS)
        cached = value is not _MISS
        if not cached:
            value = self._compute(query)
            self._cache.put(key, value)
        return QueryResult(
            query=query,
            fingerprint=fingerprint,
            cached=cached,
            elapsed_ms=(time.perf_counter() - started) * 1e3,
            value=value,
        )

    def _compute(self, query: Query) -> Any:
        kernel = KERNELS[(query.metric, query.group_by)]
        return to_jsonable(kernel(self.scope(query)))

    # ------------------------------------------------------------------
    # Filtering.
    # ------------------------------------------------------------------

    def scope(self, query: Query) -> FailureDatabase:
        """The database slice a query runs over.

        Every query, filtered or not, gets a sub-database assembled
        from the index: records ordered by manufacturer, original
        order within one manufacturer.  So an unfiltered answer is, by
        construction, the answer filtered to every manufacturer.  This
        is the *definition* of an answer: the direct-analysis parity
        comparison runs the analysis function over this same slice.
        """
        index = self._index
        names = (query.manufacturers if query.manufacturers is not None
                 else index.manufacturers)

        if query.tag is not None:
            base = index.disengagements_with_tag(FaultTag(query.tag))
            wanted = set(names)
            disengagements = [r for r in base
                              if r.manufacturer in wanted]
        elif query.category is not None:
            base = index.disengagements_in_category(
                FailureCategory(query.category))
            wanted = set(names)
            disengagements = [r for r in base
                              if r.manufacturer in wanted]
        else:
            disengagements = [r for name in names
                              for r in index.disengagements_for(name)]
        accidents = [r for name in names
                     for r in index.accidents_for(name)]
        mileage = [c for name in names
                   for c in index.mileage_for(name)]

        lo, hi = query.month_from, query.month_to
        if lo is not None or hi is not None:
            def in_range(month: str | None) -> bool:
                return (month is not None
                        and (lo is None or month >= lo)
                        and (hi is None or month <= hi))

            disengagements = [r for r in disengagements
                              if in_range(r.month)]
            accidents = [r for r in accidents if in_range(r.month)]
            mileage = [c for c in mileage if in_range(c.month)]

        return FailureDatabase(disengagements=disengagements,
                               accidents=accidents, mileage=mileage)
