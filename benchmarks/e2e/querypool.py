"""The serving workloads' request mixes and their expected answers.

``serve-hot`` uses the four routes of ``benchmarks/bench_load.py``:
their answers fit the server's result cache, so nearly every request
is a hit.  ``serve-filtered`` draws from a pool of distinct filtered
``/v1/query`` GETs, :data:`POOL_FACTOR` times the server's default
cache size, so nearly every request is a miss.  Every pool entry is
executed in-process before it is used, and an entry the engine cannot
answer (apm/dpa over a slice with no accidents gives 422) is never
drawn: a non-200 during timing is then a real error.
"""

from __future__ import annotations

import hashlib
import random
from typing import Any
from urllib.parse import parse_qs, urlencode, urlsplit

from repro.errors import InsufficientDataError, QueryError
from repro.pipeline.checkpoint import canonical_json
from repro.query import Query, QueryEngine
from repro.query.engine import GROUP_BYS, METRICS

HOT_ROUTES = (
    "/v1/query?metric=dpm&group_by=manufacturer",
    "/v1/query?metric=count&group_by=month",
    "/v1/manufacturers",
    "/v1/metrics/dpm",
)

#: Response fields that differ between two correct answers.
VOLATILE_FIELDS = ("elapsed_ms", "cached")

#: The server's default result-cache size (``QueryServer(cache_size=)``).
CACHE_SIZE = 256

#: The filtered pool is this many times the cache.
POOL_FACTOR = 16

#: Most manufacturers one pool query filters on.
MAX_MANUFACTURERS = 3


def answer_digest(body: dict[str, Any]) -> str:
    """Digest of a response body without its volatile fields."""
    stable = {key: value for key, value in body.items()
              if key not in VOLATILE_FIELDS}
    return hashlib.sha256(canonical_json(stable).encode()).hexdigest()


def query_of(path: str) -> Query:
    """The query a ``/v1/query`` or ``/v1/metrics/*`` path asks."""
    params = parse_qs(urlsplit(path).query)
    data: dict[str, Any] = {key: values[-1] for key, values in params.items()
                            if key != "manufacturer"}
    if "manufacturer" in params:
        data["manufacturers"] = tuple(params["manufacturer"])
    if path.startswith("/v1/metrics/"):
        data["metric"] = path.rsplit("/", 1)[1]
    return Query.from_dict(data)


def hot_answers(engine: QueryEngine) -> dict[str, str]:
    """Expected answer digest of every hot route, computed in-process."""
    out = {}
    for path in HOT_ROUTES:
        if path == "/v1/manufacturers":
            body = {"manufacturers": list(engine.index.manufacturers)}
        else:
            body = engine.execute(query_of(path)).to_dict()
        out[path] = answer_digest(body)
    return out


def _combos() -> list[tuple[str, str | None]]:
    """Every distinct (metric, group_by) the engine accepts."""
    seen = {}
    for metric in METRICS:
        for group_by in (None, *GROUP_BYS):
            try:
                query = Query(metric=metric, group_by=group_by)
            except QueryError:
                continue
            seen[(query.metric, query.group_by)] = None
    return list(seen)


def query_path(query: Query) -> str:
    params: list[tuple[str, str]] = [("metric", query.metric)]
    if query.group_by is not None:
        params.append(("group_by", query.group_by))
    params.extend(("manufacturer", name)
                  for name in query.manufacturers or ())
    params.append(("month_from", query.month_from))
    params.append(("month_to", query.month_to))
    return "/v1/query?" + urlencode(params)


def filtered_pool(engine: QueryEngine, seed: int,
                  size: int = CACHE_SIZE * POOL_FACTOR,
                  ) -> list[tuple[str, str]]:
    """``size`` distinct valid filtered queries as (path, digest).

    Metric x group_by x manufacturer subset x month range, drawn with
    ``random.Random(seed)`` from the manufacturers and months in the
    engine's database.  Deterministic for a seed and a database.
    """
    rng = random.Random(seed)
    combos = _combos()
    names = list(engine.index.manufacturers)
    months = list(engine.index.months)
    seen: set[str] = set()
    pool: list[tuple[str, str]] = []
    attempts = 0
    while len(pool) < size:
        attempts += 1
        if attempts > size * 8:
            raise RuntimeError(f"only {len(pool)} valid distinct queries "
                               f"for a pool of {size}")
        metric, group_by = rng.choice(combos)
        chosen = rng.sample(names, rng.randint(
            1, min(MAX_MANUFACTURERS, len(names))))
        low, high = sorted((rng.randrange(len(months)),
                            rng.randrange(len(months))))
        query = Query(metric=metric, group_by=group_by,
                      manufacturers=tuple(chosen),
                      month_from=months[low], month_to=months[high])
        key = query.canonical()
        if key in seen:
            continue
        seen.add(key)
        try:
            result = engine.execute(query)
        except InsufficientDataError:
            continue
        pool.append((query_path(query), answer_digest(result.to_dict())))
    return pool
