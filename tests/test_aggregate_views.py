"""Tests for aggregate-aware materialized views.

A view stores one aggregate's rollups; only queries with a compatible
aggregate may be answered from it (COUNT views re-aggregate by summing
their stored counts).  The optimizers must route e.g. a COUNT query past
every SUM view to the base table — or to a COUNT view if one exists.
"""

import pytest

from repro.core.operators.star_join import ScanRows, StarJoin
from repro.check import evaluate_reference
from repro.schema.lattice import (
    aggregate_compatible,
    effective_aggregate,
    source_can_answer,
)
from repro.schema.query import Aggregate, DimPredicate, GroupBy, GroupByQuery

from helpers import hash_star_join, make_tiny_db


def query(levels=(2, 2), aggregate=Aggregate.SUM, preds=()):
    return GroupByQuery(
        groupby=GroupBy(levels), aggregate=aggregate, predicates=tuple(preds)
    )


def reference(db, q):
    base = db.catalog.get("XY")
    return evaluate_reference(db.schema, base.table.all_rows(), q, base.levels)


class TestCompatibilityRules:
    def test_raw_supports_everything(self):
        for aggregate in Aggregate:
            assert aggregate_compatible(aggregate, None)

    def test_views_support_only_their_own_aggregate(self):
        assert aggregate_compatible(Aggregate.SUM, "sum")
        assert not aggregate_compatible(Aggregate.COUNT, "sum")
        assert not aggregate_compatible(Aggregate.SUM, "min")
        assert aggregate_compatible(Aggregate.MIN, "min")
        assert aggregate_compatible(Aggregate.COUNT, "count")

    def test_effective_aggregate_count_over_count_is_sum(self):
        assert effective_aggregate(Aggregate.COUNT, "count") is Aggregate.SUM
        assert effective_aggregate(Aggregate.COUNT, None) is Aggregate.COUNT
        assert effective_aggregate(Aggregate.SUM, "sum") is Aggregate.SUM
        assert effective_aggregate(Aggregate.MIN, "min") is Aggregate.MIN

    def test_source_can_answer_combines_levels_and_aggregate(self):
        q = query(levels=(1, 1), aggregate=Aggregate.COUNT)
        assert source_can_answer((0, 0), None, q)
        assert source_can_answer((1, 1), "count", q)
        assert not source_can_answer((1, 1), "sum", q)
        assert not source_can_answer((2, 0), "count", q)


class TestMaterializingNonSumViews:
    @pytest.mark.parametrize(
        "aggregate", [Aggregate.COUNT, Aggregate.MIN, Aggregate.MAX]
    )
    def test_view_contents_match_reference(self, aggregate):
        db = make_tiny_db(n_rows=300)
        entry = db.materialize((1, 1), aggregate=aggregate)
        assert entry.source_aggregate == aggregate.value
        expected = reference(db, query(levels=(1, 1), aggregate=aggregate))
        # The view stores counts as they are, MIN / MAX as int cents.
        unit = 1 if aggregate is Aggregate.COUNT else 100
        got = {(r[0], r[1]): r[2] / unit for r in entry.table.all_rows()}
        assert got == expected.groups

    def test_default_view_name_carries_aggregate(self):
        db = make_tiny_db(n_rows=50)
        entry = db.materialize((1, 1), aggregate=Aggregate.COUNT)
        assert entry.name == "X'Y'[count]"

    def test_count_view_rolls_up_through_another_count_view(self):
        db = make_tiny_db(n_rows=300)
        db.materialize((1, 0), name="c_fine", aggregate=Aggregate.COUNT)
        coarse = db.materialize((2, 1), name="c_coarse", aggregate=Aggregate.COUNT)
        # c_coarse must have been derived by SUMMING c_fine's counts; check
        # against a direct count of the base.
        expected = reference(db, query(levels=(2, 1), aggregate=Aggregate.COUNT))
        got = {(r[0], r[1]): r[2] for r in coarse.table.all_rows()}
        assert got == expected.groups

    def test_min_view_cannot_feed_sum_view(self):
        db = make_tiny_db(n_rows=100)
        db.catalog.drop("XY")  # leave only the MIN view as a source
        with pytest.raises(ValueError):
            db.materialize((1, 1), aggregate=Aggregate.MIN)


class TestQueryRouting:
    def make_db(self):
        db = make_tiny_db(n_rows=400, materialized=("X'Y'",))
        db.materialize((1, 1), name="counts", aggregate=Aggregate.COUNT)
        return db

    def test_operator_rejects_incompatible_source(self):
        db = self.make_db()
        q = query(levels=(1, 1), aggregate=Aggregate.COUNT)
        with pytest.raises(ValueError, match="measure"):
            StarJoin(db.ctx(), "X'Y'", ScanRows, [q])  # a SUM view

    def test_count_query_answered_from_count_view(self):
        db = self.make_db()
        q = query(levels=(2, 2), aggregate=Aggregate.COUNT)
        via_view = hash_star_join(db, "counts", q)
        assert via_view.groups == reference(db, q).groups

    def test_optimizer_routes_count_query_correctly(self):
        db = self.make_db()
        q = query(
            levels=(2, 2),
            aggregate=Aggregate.COUNT,
            preds=[DimPredicate(0, 2, frozenset({0}))],
        )
        plan = db.optimize([q], "gg")
        assert plan.classes[0].source in ("XY", "counts")
        report = db.execute(plan)
        assert report.result_for(q).groups == reference(db, q).groups

    def test_optimizer_routes_min_query_to_base(self):
        db = self.make_db()
        q = query(levels=(1, 1), aggregate=Aggregate.MIN)
        plan = db.optimize([q], "gg")
        assert plan.classes[0].source == "XY"
        report = db.execute(plan)
        assert report.result_for(q).groups == reference(db, q).groups

    def test_mixed_aggregate_workload_all_algorithms_correct(self):
        db = self.make_db()
        workload = [
            query(levels=(1, 1), aggregate=Aggregate.SUM),
            query(levels=(2, 2), aggregate=Aggregate.COUNT),
            query(levels=(2, 1), aggregate=Aggregate.MAX),
        ]
        for algorithm in ("naive", "tplo", "etplg", "gg", "optimal"):
            report = db.run_queries(workload, algorithm)
            for q in workload:
                assert report.result_for(q).groups == reference(db, q).groups, (
                    algorithm
                )

    def test_reference_handles_view_sources(self):
        db = self.make_db()
        counts = db.catalog.get("counts")
        q = query(levels=(2, 2), aggregate=Aggregate.COUNT)
        via_view = evaluate_reference(
            db.schema,
            counts.table.all_rows(),
            q,
            counts.levels,
            source_aggregate="count",
        )
        assert via_view.groups == reference(db, q).groups

    def test_reference_rejects_incompatible_view(self):
        db = self.make_db()
        q = query(levels=(2, 2), aggregate=Aggregate.SUM)
        with pytest.raises(ValueError):
            evaluate_reference(
                db.schema, [], q, (1, 1), source_aggregate="count"
            )
