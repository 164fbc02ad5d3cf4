"""Tests for the ANALYZE statistics subsystem and its cost-model hookup."""

import pytest

from repro.core.optimizer import CostModel
from repro.engine.statistics import analyze, analyze_table
from repro.schema.query import DimPredicate, GroupBy, GroupByQuery
from repro.workload.generator import generate_fact_rows

from conftest import make_tiny_schema
from helpers import make_tiny_db


def skewed_db(theta=1.2, n_rows=1000):
    from repro.engine.database import Database

    schema = make_tiny_schema()
    db = Database(schema, page_size=64, buffer_pages=256)
    rows = generate_fact_rows(schema, n_rows, seed=5, skew=[theta, 0.0])
    db.load_base(rows, name="XY")
    db.index_all_dimensions("XY")
    return db


class TestAnalyzeTable:
    def test_counts_sum_to_rows(self):
        db = make_tiny_db(n_rows=250)
        stats = analyze_table(db.schema, db.catalog.get("XY"))
        assert stats.n_rows == 250
        for column in stats.columns.values():
            assert int(column.counts.sum()) == 250

    def test_distinct_counts(self):
        db = make_tiny_db(n_rows=400)
        stats = analyze_table(db.schema, db.catalog.get("XY"))
        # 400 uniform draws over 12 and 8 leaves: all members appear.
        assert stats.columns[0].n_distinct == 12
        assert stats.columns[1].n_distinct == 8

    def test_view_columns_at_stored_levels(self):
        db = make_tiny_db(n_rows=250, materialized=("X'Y",))
        stats = analyze_table(db.schema, db.catalog.get("X'Y"))
        assert stats.columns[0].stored_level == 1
        assert stats.columns[1].stored_level == 0

    def test_all_level_dimension_skipped(self):
        db = make_tiny_db(n_rows=100)
        entry = db.materialize(
            (1, db.schema.dimensions[1].all_level), name="xonly"
        )
        stats = analyze_table(db.schema, entry)
        assert 1 not in stats.columns


class TestMeasuredSelectivity:
    def test_exact_on_leaf_predicate(self):
        db = make_tiny_db(n_rows=300)
        stats = analyze_table(db.schema, db.catalog.get("XY"))
        pred = DimPredicate(0, 0, frozenset({3}))
        measured = stats.predicate_selectivity(db.schema, pred)
        actual = sum(
            1 for row in db.catalog.get("XY").table.all_rows() if row[0] == 3
        ) / 300
        assert measured == pytest.approx(actual)

    def test_rolled_up_predicate(self):
        db = make_tiny_db(n_rows=300)
        stats = analyze_table(db.schema, db.catalog.get("XY"))
        pred = DimPredicate(0, 2, frozenset({0}))  # top member X1
        dim = db.schema.dimensions[0]
        actual = sum(
            1
            for row in db.catalog.get("XY").table.all_rows()
            if dim.rollup(0, 2, int(row[0])) == 0
        ) / 300
        assert stats.predicate_selectivity(db.schema, pred) == pytest.approx(
            actual
        )

    def test_finer_than_stored_returns_none(self):
        db = make_tiny_db(n_rows=100, materialized=("X'Y",))
        stats = analyze_table(db.schema, db.catalog.get("X'Y"))
        pred = DimPredicate(0, 0, frozenset({0}))  # leaf pred, X stored at X'
        assert stats.predicate_selectivity(db.schema, pred) is None


class TestCostModelIntegration:
    def make_query(self, member=0):
        return GroupByQuery(
            groupby=GroupBy((1, 2)),
            predicates=(DimPredicate(0, 0, frozenset({member})),),
        )

    def test_uniform_without_analyze(self):
        db = skewed_db()
        model = CostModel(db.schema, db.catalog, db.stats.rates)
        entry = db.catalog.get("XY")
        assert model.predicate_selectivity(
            entry, self.make_query().predicates[0]
        ) == pytest.approx(1 / 12)

    def test_measured_after_analyze(self):
        db = skewed_db(theta=1.2)
        analyze(db)
        model = CostModel(
            db.schema, db.catalog, db.stats.rates, statistics=db.table_statistics
        )
        entry = db.catalog.get("XY")
        hot = model.predicate_selectivity(
            entry, self.make_query(member=0).predicates[0]
        )
        cold = model.predicate_selectivity(
            entry, self.make_query(member=11).predicates[0]
        )
        # Zipf: member 0 is far more frequent than member 11.
        assert hot > 2 * cold
        assert hot > 1 / 12 > cold

    def test_database_analyze_feeds_optimizer(self):
        db = skewed_db(theta=1.5)
        db.analyze()
        # Selective predicate on a *cold* member: measured selectivity makes
        # the index plan's estimate far smaller than the uniform one.
        cold_query = self.make_query(member=11)
        uniform_model = CostModel(db.schema, db.catalog, db.stats.rates)
        measured_model = CostModel(
            db.schema, db.catalog, db.stats.rates,
            statistics=db.table_statistics,
        )
        entry = db.catalog.get("XY")
        uniform_est = uniform_model.plan_class(entry, [cold_query]).cost_ms
        measured_est = measured_model.plan_class(entry, [cold_query]).cost_ms
        assert measured_est < uniform_est
        # Plans built through the Database use the stored statistics.
        plan = db.optimize([cold_query], "gg")
        assert plan.est_cost_ms == pytest.approx(measured_est, rel=0.01)

    def test_measured_estimates_track_simulation_under_skew(self):
        from repro.bench.harness import forced_plan
        from repro.core.optimizer.plans import JoinMethod

        db = skewed_db(theta=1.5)
        db.analyze()
        model = CostModel(
            db.schema, db.catalog, db.stats.rates,
            statistics=db.table_statistics,
        )
        query = self.make_query(member=0)  # the hot member
        plan = forced_plan("XY", [query], [JoinMethod.HASH])
        est = model.class_cost(plan.classes[0])
        run = db.execute(plan)
        assert est == pytest.approx(run.sim_ms, rel=0.15)

    def test_analyze_subset(self):
        db = skewed_db()
        db.analyze(["XY"])
        assert set(db.table_statistics) == {"XY"}
