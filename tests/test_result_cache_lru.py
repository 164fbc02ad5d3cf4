"""The ResultCache: hits by semantics, access-ordered LRU eviction, metrics
export, and the attached cache behind ``Database.run_queries``.

The cache must evict the *least recently used* entry — a hit refreshes the
entry's recency, so hot dashboard queries survive while one-offs age out —
and must report occupancy, evictions, and hit rate through the metrics
registry so the serve layer can surface cache health.
"""

from __future__ import annotations

import pytest

from repro.check import evaluate_reference
from repro.core.operators.results import QueryResult
from repro.engine.result_cache import ResultCache, attach_cache
from repro.obs.metrics import MetricsRegistry, set_default_registry
from repro.schema.query import DimPredicate, GroupBy, GroupByQuery
from repro.workload.generator import generate_fact_rows

from helpers import make_tiny_db


@pytest.fixture()
def registry():
    """Isolate each test in a fresh default metrics registry."""
    fresh = MetricsRegistry()
    previous = set_default_registry(fresh)
    try:
        yield fresh
    finally:
        set_default_registry(previous)


def make_query(member: int) -> GroupByQuery:
    """Distinct semantic identity per ``member`` (predicates are part of
    the cache key)."""
    return GroupByQuery(
        groupby=GroupBy((1, 1)),
        predicates=(DimPredicate(0, 0, frozenset({member})),),
        label=f"q{member}",
    )


def q(levels=(1, 1), preds=(), label=""):
    return GroupByQuery(
        groupby=GroupBy(levels), predicates=tuple(preds), label=label
    )


def make_result(member: int) -> QueryResult:
    return QueryResult(query=make_query(member), groups={(0, 0): float(member)})


class TestLRUEviction:
    def test_eviction_drops_least_recently_used_not_first_inserted(
        self, registry
    ):
        cache = ResultCache(max_entries=3)
        for member in (0, 1, 2):
            cache.put(make_result(member))
        # Touch the oldest entry: under FIFO it would still be evicted
        # next; under LRU the untouched entry 1 is now the victim.
        assert cache.get(make_query(0)) is not None
        cache.put(make_result(3))
        assert len(cache) == 3
        assert cache.get(make_query(0)) is not None
        assert cache.get(make_query(1)) is None
        assert cache.get(make_query(2)) is not None
        assert cache.stats.evictions == 1

    def test_put_refreshes_recency(self, registry):
        cache = ResultCache(max_entries=2)
        cache.put(make_result(0))
        cache.put(make_result(1))
        cache.put(make_result(0))  # re-insert: 1 becomes the LRU entry
        cache.put(make_result(2))
        assert cache.get(make_query(0)) is not None
        assert cache.get(make_query(1)) is None

    def test_eviction_cascade_keeps_bound(self, registry):
        cache = ResultCache(max_entries=4)
        for member in range(20):
            cache.put(make_result(member))
            assert len(cache) <= 4
        assert cache.stats.evictions == 16
        # Exactly the 4 most recent entries survive.
        for member in range(16):
            assert cache.get(make_query(member)) is None
        for member in range(16, 20):
            assert cache.get(make_query(member)) is not None

    def test_replacing_existing_entry_does_not_evict(self, registry):
        cache = ResultCache(max_entries=2)
        cache.put(make_result(0))
        cache.put(make_result(1))
        cache.put(make_result(1))
        assert len(cache) == 2
        assert cache.stats.evictions == 0

    def test_rejects_nonpositive_capacity(self, registry):
        with pytest.raises(ValueError):
            ResultCache(max_entries=0)


class TestCacheMetrics:
    def test_counters_and_gauges_track_cache_activity(self, registry):
        cache = ResultCache(max_entries=2)
        cache.get(make_query(0))  # miss
        cache.put(make_result(0))
        cache.get(make_query(0))  # hit
        cache.put(make_result(1))
        # Entry 0 was refreshed by the hit, so this evicts entry 1.
        cache.put(make_result(2))
        assert registry.get("result_cache.hits").value == 1
        assert registry.get("result_cache.misses").value == 1
        assert registry.get("result_cache.evictions").value == 1
        assert registry.get("result_cache.occupancy").value == 2
        assert registry.get("result_cache.hit_rate").value == pytest.approx(
            0.5
        )

    def test_invalidation_zeroes_occupancy(self, registry):
        cache = ResultCache(max_entries=4)
        cache.put(make_result(0))
        cache.put(make_result(1))
        cache.invalidate()
        assert registry.get("result_cache.invalidations").value == 1
        assert registry.get("result_cache.occupancy").value == 0
        assert len(cache) == 0

    def test_hit_rate_matches_stats_property(self, registry):
        cache = ResultCache(max_entries=4)
        cache.put(make_result(0))
        for _ in range(3):
            cache.get(make_query(0))
        cache.get(make_query(9))
        assert cache.stats.hit_rate == pytest.approx(0.75)
        assert registry.get("result_cache.hit_rate").value == pytest.approx(
            cache.stats.hit_rate
        )


class TestAttachedCacheLRU:
    def test_attached_cache_evicts_lru_under_load(self, registry):
        db = make_tiny_db(n_rows=120)
        cache = attach_cache(db, max_entries=2)
        hot = make_query(0)
        for member in (0, 1, 2, 3):
            db.run_queries([make_query(member)], "gg")
            # Keep the hot query recent so it survives every eviction.
            db.run_queries([hot], "gg")
        assert cache.stats.evictions > 0
        hits_before = cache.stats.hits
        db.run_queries([hot], "gg")
        assert cache.stats.hits == hits_before + 1


class TestResultCache:
    def test_hit_after_put(self):
        cache = ResultCache()
        query = q()
        from repro.core.operators.results import QueryResult

        cache.put(QueryResult(query=query, groups={(0, 0): 1.0}))
        twin = q()  # same semantics, different qid
        hit = cache.get(twin)
        assert hit is not None
        assert hit.query.qid == twin.qid
        assert hit.groups == {(0, 0): 1.0}
        assert cache.stats.hits == 1

    def test_fifo_eviction(self):
        from repro.core.operators.results import QueryResult

        cache = ResultCache(max_entries=2)
        a, b, c = q((1, 1)), q((2, 2)), q((1, 2))
        for query in (a, b, c):
            cache.put(QueryResult(query=query, groups={}))
        assert cache.get(q((1, 1))) is None  # evicted
        assert cache.get(q((2, 2))) is not None

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            ResultCache(max_entries=0)


class TestAttachedCache:
    def test_second_run_is_served_from_cache(self):
        db = make_tiny_db(n_rows=300)
        cache = attach_cache(db)
        query = q(label="cached")
        first = db.run_queries([query], "gg")
        assert first.n_cache_hits == 0
        twin = q(label="again")
        second = db.run_queries([twin], "gg")
        assert second.n_cache_hits == 1
        assert second.result_for(twin).groups == first.result_for(query).groups
        assert cache.stats.hit_rate > 0

    def test_cached_results_are_correct(self):
        db = make_tiny_db(n_rows=300)
        attach_cache(db)
        query = q((2, 1), preds=[DimPredicate(0, 2, frozenset({0}))])
        db.run_queries([query], "gg")
        twin = q((2, 1), preds=[DimPredicate(0, 2, frozenset({0}))])
        report = db.run_queries([twin], "gg")
        base = db.catalog.get("XY")
        expected = evaluate_reference(
            db.schema, base.table.all_rows(), twin, base.levels
        )
        assert report.result_for(twin).groups == expected.groups

    def test_mixed_hit_and_miss_batch(self):
        db = make_tiny_db(n_rows=300)
        attach_cache(db)
        db.run_queries([q(label="warm")], "gg")
        batch = [q(label="hit"), q((2, 2), label="miss")]
        report = db.run_queries(batch, "gg")
        assert report.n_cache_hits == 1
        assert set(report.results) == {query.qid for query in batch}

    def test_append_invalidates(self):
        db = make_tiny_db(n_rows=300)
        cache = attach_cache(db)
        query = q(label="stale-check")
        stale = db.run_queries([query], "gg").result_for(query)
        db.append_rows(generate_fact_rows(db.schema, 50, seed=321))
        assert len(cache) == 0
        fresh_query = q(label="fresh")
        fresh = db.run_queries([fresh_query], "gg").result_for(fresh_query)
        # The new rows changed the answer; the cache must not serve the old
        # one.
        assert fresh.groups != stale.groups
        base = db.catalog.get("XY")
        expected = evaluate_reference(
            db.schema, base.table.all_rows(), fresh_query, base.levels
        )
        assert fresh.groups == expected.groups
