"""Tests for cross-expression query sessions with deduplication."""

import pytest

from repro.check import CorrectnessError
from repro.engine.database import Database
from repro.engine.reference import evaluate_reference
from repro.engine.result_cache import attach_cache
from repro.engine.session import QuerySession, coalesce, query_key
from repro.schema.query import DimPredicate, GroupBy, GroupByQuery

from helpers import make_tiny_db


@pytest.fixture()
def db():
    return make_tiny_db(n_rows=400, materialized=("X'Y'",))


def q(levels=(1, 1), preds=(), label=""):
    return GroupByQuery(
        groupby=GroupBy(levels), predicates=tuple(preds), label=label
    )


class TestQueryKey:
    def test_identical_semantics_same_key(self):
        a = q(preds=[DimPredicate(0, 2, frozenset({0}))], label="a")
        b = q(preds=[DimPredicate(0, 2, frozenset({0}))], label="b")
        assert a.qid != b.qid
        assert query_key(a) == query_key(b)

    def test_different_predicates_different_key(self):
        a = q(preds=[DimPredicate(0, 2, frozenset({0}))])
        b = q(preds=[DimPredicate(0, 2, frozenset({1}))])
        assert query_key(a) != query_key(b)

    def test_different_aggregate_different_key(self):
        from repro.schema.query import Aggregate

        a = q()
        b = GroupByQuery(groupby=GroupBy((1, 1)), aggregate=Aggregate.COUNT)
        assert query_key(a) != query_key(b)


class TestCoalesce:
    def test_first_submission_is_canonical_and_order_kept(self):
        a, a2, b = q(label="a"), q(label="a2"), q((2, 2), label="b")
        distinct, members = coalesce([("r1", a), ("r2", b), ("r2", a2)])
        assert distinct == [a, b]
        assert list(members) == [query_key(a), query_key(b)]
        assert members[query_key(a)] == [("r1", a), ("r2", a2)]
        assert members[query_key(b)] == [("r2", b)]


class TestSessionUsesTheFrontDoor:
    """Regressions: a session used to call optimize + execute itself, so
    it never consulted the result cache and skipped the submitted-batch
    validation ``Database.run_queries`` does under paranoia."""

    def test_second_identical_run_is_served_from_the_cache(self, db, monkeypatch):
        cache = attach_cache(db)
        batch = [q(label="a"), q(label="a-twin"), q((2, 2), label="b")]
        first = QuerySession(db).add_queries(batch).run()
        assert first.execution.n_cache_hits == 0
        assert (cache.stats.hits, cache.stats.misses) == (0, 2)

        def no_planning(self, queries, algorithm="gg"):
            raise AssertionError("a fully cached batch must not be planned")

        monkeypatch.setattr(Database, "optimize", no_planning)
        second = QuerySession(db).add_queries(batch).run()
        assert second.n_distinct == 2
        assert second.execution.n_cache_hits == second.n_distinct
        assert not second.execution.plan.classes
        assert (cache.stats.hits, cache.stats.misses) == (2, 2)
        for query in batch:
            assert second.result_for(query).approx_equals(
                first.result_for(query)
            )

    def test_dropped_query_caught_under_paranoia(self, db, monkeypatch):
        db.paranoia = True
        real_optimize = Database.optimize

        def dropping_optimize(self, queries, algorithm="gg"):
            return real_optimize(self, queries[:-1], algorithm)

        monkeypatch.setattr(Database, "optimize", dropping_optimize)
        session = QuerySession(db).add_queries(
            [q(label="kept"), q((2, 2), label="dropped")]
        )
        with pytest.raises(CorrectnessError, match="submitted batch"):
            session.run()


class TestSessionRuns:
    def test_duplicates_evaluated_once(self, db):
        twins = [q(label=f"dup{i}") for i in range(3)]
        other = q(levels=(2, 2), label="other")
        session = QuerySession(db).add_queries(twins + [other])
        report = session.run()
        assert report.n_submitted == 4
        assert report.n_distinct == 2
        assert report.n_duplicates_eliminated == 2
        # The executed plan contains only the distinct queries.
        assert report.execution.plan.n_queries == 2

    def test_every_submission_gets_its_result(self, db):
        twins = [q(label=f"dup{i}") for i in range(3)]
        session = QuerySession(db).add_queries(twins)
        report = session.run()
        base = db.catalog.get("XY")
        expected = evaluate_reference(
            db.schema, base.table.all_rows(), twins[0], base.levels
        )
        for twin in twins:
            result = report.result_for(twin)
            assert result.query.qid == twin.qid
            assert result.approx_equals(expected)

    def test_cross_expression_sharing(self, db):
        """Two MDX expressions over the same cube optimize as one unit."""
        session = QuerySession(db)
        session.add_mdx("{X''.X1} on COLUMNS CONTEXT XY")
        session.add_mdx("{X''.X2} on COLUMNS CONTEXT XY")
        report = session.run()
        assert report.n_distinct == 2
        # GG puts both queries in one shared class.
        assert len(report.execution.plan.classes) == 1

    def test_identical_mdx_deduplicates(self, db):
        text = "{X''.X1.CHILDREN} on COLUMNS CONTEXT XY"
        session = QuerySession(db)
        session.add_mdx(text)
        session.add_mdx(text)
        report = session.run()
        assert report.n_submitted == 2
        assert report.n_distinct == 1

    def test_run_clears_pending(self, db):
        session = QuerySession(db).add_queries([q()])
        assert session.n_pending == 1
        session.run()
        assert session.n_pending == 0
        with pytest.raises(ValueError):
            session.run()

    def test_lost_class_raises_typed_error_and_keeps_pending(self):
        """A class lost to a fault used to surface as a bare KeyError(qid)."""
        from repro.faults import InjectedFault, PartialResultError
        from repro.faults import parse_fault_plan
        from repro.workload import build_paper_database, paper_queries
        from repro.workload.paper_queries import PAPER_TESTS

        paper = build_paper_database(scale=0.002)
        queries = paper_queries(paper.schema)
        batch = [queries[i] for i in PAPER_TESTS["test4"]]
        session = QuerySession(paper).add_queries(batch)
        paper.arm_faults(parse_fault_plan("storage.scan:nth=1"))
        with pytest.raises(PartialResultError) as raised:
            session.run()
        assert isinstance(raised.value.__cause__, InjectedFault)
        # Nothing was answered, so nothing is dropped: the fault was
        # single-shot and the same session runs clean.
        assert session.n_pending == len(batch)
        report = session.run()
        assert sorted(report.results) == sorted(x.qid for x in batch)
        assert session.n_pending == 0

    def test_algorithm_respected(self, db):
        session = QuerySession(db, algorithm="naive")
        session.add_queries([q(label="a"), q(levels=(2, 2), label="b")])
        report = session.run()
        assert report.execution.plan.algorithm == "naive"

    def test_summary_mentions_dedup(self, db):
        session = QuerySession(db).add_queries([q(), q()])
        report = session.run()
        assert "1 duplicate(s) eliminated" in report.summary()

    def test_invalid_query_rejected_at_add(self, db):
        bad = GroupByQuery(
            groupby=GroupBy((1, 1)),
            predicates=(DimPredicate(0, 1, frozenset({999})),),
        )
        with pytest.raises(ValueError):
            QuerySession(db).add_queries([bad])
