"""Tests for the query layer: index, cache, typed queries, engine.

The golden parity class is the acceptance contract of the subsystem:
every served result must be byte-identical (as canonical JSON) to the
corresponding direct :mod:`repro.analysis` computation on the same
database.
"""

from __future__ import annotations

import threading
from types import MappingProxyType

import pytest

from repro.analysis.kernels import KERNELS
from repro.errors import QueryError
from repro.pipeline.checkpoint import canonical_json
from repro.pipeline.store import (
    FailureDatabase,
    group_by_manufacturer,
    manufacturer_names,
)
from repro.query.cache import LruCache
from repro.query.engine import Query, QueryEngine, to_jsonable
from repro.query.index import DatabaseIndex
from repro.taxonomy import FailureCategory, FaultTag, category_of


# ----------------------------------------------------------------------
# Shared grouping helpers / fingerprint (store.py satellites).
# ----------------------------------------------------------------------


class TestStoreHelpers:
    def test_manufacturer_names_spans_collections(self, small_db):
        names = manufacturer_names(
            small_db.disengagements, small_db.accidents,
            small_db.mileage)
        assert names == set(small_db.manufacturers())

    def test_group_by_manufacturer_matches_methods(self, small_db):
        assert (group_by_manufacturer(small_db.disengagements)
                == small_db.disengagements_by_manufacturer())
        assert (group_by_manufacturer(small_db.accidents)
                == small_db.accidents_by_manufacturer())

    def test_fingerprint_stable(self, small_db):
        assert small_db.fingerprint() == small_db.fingerprint()
        assert len(small_db.fingerprint()) == 64

    def test_fingerprint_roundtrip_invariant(self, small_db, tmp_path):
        path = tmp_path / "db.json"
        small_db.save(path)
        assert (FailureDatabase.load(path).fingerprint()
                == small_db.fingerprint())

    def test_fingerprint_tracks_content(self, small_db):
        before = small_db.fingerprint()
        record = small_db.disengagements.pop()
        try:
            assert small_db.fingerprint() != before
        finally:
            small_db.disengagements.append(record)
        assert small_db.fingerprint() == before


# ----------------------------------------------------------------------
# Index.
# ----------------------------------------------------------------------


class TestDatabaseIndex:
    @pytest.fixture(scope="class")
    def index(self, small_db):
        return DatabaseIndex.build(small_db)

    def test_by_manufacturer_partitions(self, index, small_db):
        total = sum(len(index.disengagements_for(name))
                    for name in index.manufacturers)
        assert total == len(small_db.disengagements)
        for name in index.manufacturers:
            assert all(r.manufacturer == name
                       for r in index.disengagements_for(name))

    def test_matches_database_scans(self, index, small_db):
        for name in small_db.manufacturers():
            assert (list(index.disengagements_for(name))
                    == small_db.disengagements_by_manufacturer()
                    .get(name, []))
            # Both sides add the same floats in the same order.
            assert index.miles_for(name) == (
                small_db.miles_by_manufacturer().get(name, 0.0))
            assert dict(index.monthly_miles(name)) == (
                small_db.monthly_miles(name))

    def test_by_month_partitions(self, index, small_db):
        seen = sum(len(index.disengagements_in_month(month))
                   for month in index.months)
        assert seen == len(small_db.disengagements)

    def test_by_tag_and_category_consistent(self, index, small_db):
        tagged = [r for r in small_db.disengagements
                  if r.tag is not None]
        assert sum(len(index.disengagements_with_tag(tag))
                   for tag in index.tags) == len(tagged)
        for category in index.categories:
            records = index.disengagements_in_category(category)
            assert all(category_of(r.tag) is category
                       for r in records)

    def test_immutable(self, index):
        with pytest.raises(TypeError):
            index._miles_by_manufacturer["X"] = 1.0  # type: ignore
        assert isinstance(
            index.disengagements_for(index.manufacturers[0]), tuple)

    def test_published_mappings_are_plain_dicts(self, index):
        # A defaultdict under a proxy would insert a key on a ``[]``
        # read of a missing one.
        mappings = [value for value in vars(index).values()
                    if isinstance(value, MappingProxyType)]
        mappings += index._monthly_miles.values()
        assert len(mappings) >= 9
        for mapping in mappings:
            before = dict(mapping)
            with pytest.raises(KeyError):
                mapping["no such key"]
            assert dict(mapping) == before

    def test_summary_counts(self, index, small_db):
        summary = index.summary()
        assert summary["disengagements"] == len(
            small_db.disengagements)
        assert summary["fingerprint"] == index.fingerprint


# ----------------------------------------------------------------------
# Cache.
# ----------------------------------------------------------------------


class TestLruCache:
    def test_hit_miss_counters(self):
        cache = LruCache(maxsize=2)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)
        assert stats.hit_rate == 0.5

    def test_eviction_is_lru(self):
        cache = LruCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # refresh a; b is now LRU
        cache.put("c", 3)
        assert "b" not in cache
        assert cache.get("a") == 1
        assert cache.stats().evictions == 1

    def test_cached_none_is_a_hit(self):
        cache = LruCache()
        cache.put("k", None)
        sentinel = object()
        assert cache.get("k", sentinel) is None
        assert cache.stats().hits == 1

    def test_zero_capacity_disables(self):
        cache = LruCache(maxsize=0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_concurrent_hammer(self):
        cache = LruCache(maxsize=64)
        errors: list[Exception] = []

        def worker(offset: int) -> None:
            try:
                for i in range(500):
                    key = (offset + i) % 100
                    cache.put(key, key * 2)
                    value = cache.get(key)
                    assert value in (None, key * 2)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(n,))
                   for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cache) <= 64


# ----------------------------------------------------------------------
# Typed queries.
# ----------------------------------------------------------------------


class TestQueryValidation:
    def test_unknown_metric(self):
        with pytest.raises(QueryError, match="unknown metric"):
            Query(metric="frobnicate")

    def test_default_group_by(self):
        assert Query(metric="dpm").group_by == "manufacturer"
        assert Query(metric="count").group_by is None

    def test_unsupported_group_by(self):
        with pytest.raises(QueryError, match="cannot group by"):
            Query(metric="apm", group_by="month")

    def test_bad_month(self):
        with pytest.raises(QueryError, match="YYYY-MM"):
            Query(metric="count", month_from="2016")

    def test_inverted_range(self):
        with pytest.raises(QueryError, match="empty month range"):
            Query(metric="count", month_from="2016-05",
                  month_to="2016-01")

    def test_unknown_tag_and_category(self):
        with pytest.raises(QueryError, match="unknown fault tag"):
            Query(metric="count", tag="Gremlins")
        with pytest.raises(QueryError, match="unknown failure"):
            Query(metric="count", category="Gremlins")

    def test_string_manufacturers_rejected(self):
        with pytest.raises(QueryError, match="sequence of names"):
            Query(metric="count", manufacturers="Waymo")

    def test_manufacturers_normalized(self):
        query = Query(metric="count",
                      manufacturers=("B", "A", "B"))
        assert query.manufacturers == ("A", "B")

    def test_canonical_is_order_insensitive(self):
        a = Query(metric="count", manufacturers=("X", "Y"))
        b = Query(metric="count", manufacturers=("Y", "X"))
        assert a.canonical() == b.canonical()

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(QueryError, match="unknown query field"):
            Query.from_dict({"metric": "count", "frob": 1})
        with pytest.raises(QueryError, match="missing the 'metric'"):
            Query.from_dict({})

    def test_from_dict_roundtrip(self):
        query = Query(metric="dpm", manufacturers=("Waymo",),
                      month_from="2015-01")
        assert Query.from_dict(query.to_dict()) == query

    def test_from_dict_accepts_single_name(self):
        query = Query.from_dict(
            {"metric": "count", "manufacturers": "Waymo"})
        assert query.manufacturers == ("Waymo",)


class TestToJsonable:
    def test_enum_and_numpy(self):
        import numpy as np

        value = to_jsonable({
            FaultTag.SOFTWARE: np.float64(1.5),
            2016: np.int32(3),
            "flag": np.bool_(True),
            "inf": float("inf"),
        })
        assert value == {"Software": 1.5, "2016": 3,
                         "flag": True, "inf": None}

    def test_dataclass(self):
        from repro.analysis.stats import boxplot_stats

        box = to_jsonable(boxplot_stats([1.0, 2.0, 3.0]))
        assert box["median"] == 2.0 and box["n"] == 3


# ----------------------------------------------------------------------
# Engine.
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def engine(db):
    return QueryEngine(db)


class TestQueryEngine:
    def test_cache_roundtrip(self, engine):
        query = Query(metric="dpm")
        first = engine.execute(query)
        second = engine.execute(query)
        assert not first.cached
        assert second.cached
        assert first.value == second.value
        assert first.fingerprint == engine.fingerprint

    def test_dict_queries_accepted(self, engine):
        result = engine.execute({"metric": "count"})
        assert result.value["disengagements"] == len(
            engine.db.disengagements)

    def test_count_groupings_consistent(self, engine, db):
        by_manufacturer = engine.execute(
            Query(metric="count", group_by="manufacturer")).value
        assert by_manufacturer == {
            name: len(records) for name, records in
            db.disengagements_by_manufacturer().items()}
        by_tag = engine.execute(
            Query(metric="count", group_by="tag")).value
        assert sum(by_tag.values()) == sum(
            1 for r in db.disengagements if r.tag is not None)
        by_month = engine.execute(
            Query(metric="count", group_by="month")).value
        assert sum(by_month.values()) == len(db.disengagements)

    def test_miles_groupings_consistent(self, engine, db):
        total = engine.execute(Query(metric="miles")).value
        assert total == pytest.approx(db.total_miles)
        by_month = engine.execute(
            Query(metric="miles", group_by="month")).value
        assert sum(by_month.values()) == pytest.approx(db.total_miles)

    def test_filtered_scope_matches_manual_slice(self, engine, db):
        name = db.manufacturers()[0]
        scope = engine.scope(Query(metric="count",
                                   manufacturers=(name,)))
        assert {r.manufacturer for r in scope.disengagements} <= {name}
        assert len(scope.disengagements) == len(
            db.disengagements_by_manufacturer()[name])

    def test_month_range_filter(self, engine, db):
        months = sorted({r.month for r in db.disengagements})
        lo, hi = months[0], months[len(months) // 2]
        value = engine.execute(Query(
            metric="count", month_from=lo, month_to=hi)).value
        expected = sum(1 for r in db.disengagements
                       if lo <= r.month <= hi)
        assert value["disengagements"] == expected

    def test_tag_filter_keeps_denominators(self, engine, db):
        tag = next(r.tag for r in db.disengagements
                   if r.tag is not None)
        scope = engine.scope(Query(metric="count", tag=tag.value))
        assert all(r.tag is tag for r in scope.disengagements)
        # Accidents and mileage are not tag-filtered.
        assert len(scope.mileage) == len(db.mileage)
        assert len(scope.accidents) == len(db.accidents)

    def test_filtered_count_grouping(self, engine, db):
        name = db.manufacturers()[0]
        value = engine.execute(Query(
            metric="count", group_by="category",
            manufacturers=(name,))).value
        expected: dict[str, int] = {}
        for record in db.disengagements:
            if record.manufacturer == name and record.tag is not None:
                key = category_of(record.tag).value
                expected[key] = expected.get(key, 0) + 1
        assert value == expected

    def test_stats_shape(self, engine):
        stats = engine.stats()
        assert stats["fingerprint"] == engine.fingerprint
        assert set(stats["cache"]) >= {"hits", "misses", "hit_rate"}
        assert stats["index"]["disengagements"] == len(
            engine.db.disengagements)


# ----------------------------------------------------------------------
# Golden parity: served results == direct analysis, byte for byte.
# ----------------------------------------------------------------------


ANALYSIS_QUERIES = [
    Query(metric="dpm"),
    Query(metric="dpm", group_by="month"),
    Query(metric="dpm", group_by="year"),
    Query(metric="apm"),
    Query(metric="dpa"),
    Query(metric="dpa", group_by="manufacturer"),
    Query(metric="tags"),
    Query(metric="categories"),
    Query(metric="modalities"),
    Query(metric="trend"),
]


class TestGoldenParity:
    @pytest.mark.parametrize(
        "query", ANALYSIS_QUERIES,
        ids=lambda q: f"{q.metric}-{q.group_by}")
    def test_unfiltered_parity(self, engine, db, query):
        kernel = KERNELS[(query.metric, query.group_by)]
        direct = canonical_json(to_jsonable(kernel(db)))
        served = canonical_json(engine.execute(query).value)
        assert served == direct
        # And again from the cache: still byte-identical.
        assert canonical_json(engine.execute(query).value) == direct

    @pytest.mark.parametrize("metric", ["dpm", "tags", "categories"])
    def test_filtered_parity(self, engine, db, metric):
        names = tuple(db.manufacturers()[:3])
        query = Query(metric=metric, manufacturers=names)
        kernel = KERNELS[(query.metric, query.group_by)]
        direct = canonical_json(to_jsonable(
            kernel(engine.scope(query))))
        assert canonical_json(engine.execute(query).value) == direct

    def test_scope_preserves_analysis_semantics(self, engine, db):
        # A manufacturer slice must answer exactly like a database
        # built from that manufacturer's records.
        name = db.manufacturers()[0]
        query = Query(metric="dpm", manufacturers=(name,))
        manual = FailureDatabase(
            disengagements=[r for r in db.disengagements
                            if r.manufacturer == name],
            accidents=[r for r in db.accidents
                       if r.manufacturer == name],
            mileage=[c for c in db.mileage
                     if c.manufacturer == name],
        )
        kernel = KERNELS[(query.metric, query.group_by)]
        assert (canonical_json(engine.execute(query).value)
                == canonical_json(to_jsonable(kernel(manual))))


class TestRenderQueryStats:
    def test_renders_counters(self, small_db):
        from repro.reporting.summary import render_query_stats

        engine = QueryEngine(small_db)
        engine.execute(Query(metric="dpm"))
        engine.execute(Query(metric="dpm"))
        text = render_query_stats(engine.stats())
        assert engine.fingerprint[:12] in text
        assert "1 hit(s)" in text
        assert "(50.0%)" in text
