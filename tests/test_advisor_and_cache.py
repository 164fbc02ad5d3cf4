"""Tests for the workload advisor (query log → view recommendation) and the
semantic result cache."""

import pytest

from repro.engine.advisor import (
    QueryLog,
    apply_recommendation,
    attach_log,
    recommend_views,
)
from repro.engine.reference import evaluate_reference
from repro.engine.result_cache import ResultCache, attach_cache
from repro.schema.query import DimPredicate, GroupBy, GroupByQuery
from repro.workload.generator import generate_fact_rows

from helpers import make_tiny_db


def q(levels=(1, 1), preds=(), label=""):
    return GroupByQuery(
        groupby=GroupBy(levels), predicates=tuple(preds), label=label
    )


class TestQueryLog:
    def test_execute_records_queries(self):
        db = make_tiny_db(n_rows=200)
        log = attach_log(db)
        db.run_queries([q(label="a"), q((2, 2), label="b")], "gg")
        assert len(log) == 2
        assert log.entries[0].sim_ms > 0

    def test_execute_with_executor_options_is_logged(self):
        """Regression: the wrapper that used to replace ``db.execute`` kept
        the signature ``(plan, cold=True)`` and raised ``TypeError`` on the
        options the method it shadowed had since grown."""
        db = make_tiny_db(n_rows=200)
        log = attach_log(db)
        plan = db.optimize([q(label="a"), q((2, 2), label="b")], "tplo")
        report = db.execute(plan, n_workers=2, paranoia=True)
        assert len(report.results) == 2
        assert len(log) == 2

    @pytest.mark.parametrize("n_workers", [1, 4])
    @pytest.mark.parametrize("shards", [1, 2])
    def test_served_requests_are_logged(self, n_workers, shards):
        """Regression: the service used to call ``execute_plan`` directly
        and never crossed the logging wrapper."""
        db = make_tiny_db(n_rows=200)
        log = attach_log(db)
        batch = [q(label="a"), q((2, 2), label="b")]
        with db.serve(window_ms=1.0, n_workers=n_workers, shards=shards) as svc:
            svc.submit(batch).result(timeout=30)
        assert len(log) == 2
        assert sum(entry.sim_ms for entry in log.entries) == pytest.approx(
            svc.stats.snapshot().sim_ms_total
        )

    def test_hot_requirements_ranked(self):
        log = QueryLog()
        for _ in range(3):
            log.record(q((1, 1)))
        log.record(q((2, 2)))
        hot = log.hot_requirements()
        assert hot[0] == ((1, 1), 3)
        assert hot[1] == ((2, 2), 1)

    def test_required_levels_include_predicates(self):
        log = QueryLog()
        log.record(q((2, 2), preds=[DimPredicate(0, 1, frozenset({0}))]))
        assert log.entries[0].required_levels == (1, 2)


class TestAdvisor:
    def run_workload(self, db):
        workload = [
            q((1, 1), label="w1"),
            q((1, 1), label="w2"),
            q((2, 1), label="w3"),
        ]
        db.run_queries(workload, "gg")
        return workload

    def test_recommends_useful_views(self):
        db = make_tiny_db(n_rows=600)
        attach_log(db)
        self.run_workload(db)
        recommendation = recommend_views(db, budget=2)
        assert recommendation.selection.views
        # The hottest requirement (1,1) must be coverable by some
        # recommended view.
        target = GroupBy((1, 1))
        assert any(
            target.derivable_from(view)
            for view in recommendation.selection.views
        )

    def test_existing_views_not_rerecommended(self):
        db = make_tiny_db(n_rows=600, materialized=("X'Y'",))
        attach_log(db)
        self.run_workload(db)
        recommendation = recommend_views(db, budget=3)
        assert GroupBy((1, 1)) not in recommendation.selection.views
        assert "X'Y'" in recommendation.already_materialized

    def test_apply_speeds_up_the_workload(self):
        db = make_tiny_db(n_rows=1500)
        attach_log(db)
        workload = self.run_workload(db)
        before = db.run_queries(workload, "gg").sim_ms
        recommendation = recommend_views(db, budget=2)
        created = apply_recommendation(db, recommendation)
        assert created
        after = db.run_queries(workload, "gg").sim_ms
        assert after < before

    def test_no_log_rejected(self):
        db = make_tiny_db(n_rows=100)
        with pytest.raises(ValueError, match="no logged workload"):
            recommend_views(db)

    def test_describe_renders(self):
        db = make_tiny_db(n_rows=300)
        attach_log(db)
        self.run_workload(db)
        recommendation = recommend_views(db, budget=1)
        assert "advisor" in recommendation.describe(db.schema)


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
        assert second.result_for(twin).approx_equals(
            first.result_for(query)
        )
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
        assert report.result_for(twin).approx_equals(expected)

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
        assert not fresh.approx_equals(stale)
        base = db.catalog.get("XY")
        expected = evaluate_reference(
            db.schema, base.table.all_rows(), fresh_query, base.levels
        )
        assert fresh.approx_equals(expected)
