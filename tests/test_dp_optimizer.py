"""Tests for the exact set-partition DP optimizer (registry names
``optimal`` and ``dp``).  Exactness against the brute-force oracle is swept
in tests/test_optimizers.py::TestRegistrySweep."""

import random

import pytest

from repro.core.optimizer.dp import MAX_QUERIES, DPOptimalOptimizer
from repro.engine.reference import evaluate_reference
from repro.schema.query import GroupBy, GroupByQuery

from helpers import make_tiny_db, random_query


@pytest.fixture(scope="module")
def db():
    return make_tiny_db(
        n_rows=700,
        materialized=("X'Y", "XY'", "X'Y'", "X''Y'"),
        index_tables=("XY", "X'Y"),
    )


class TestExactness:
    def test_never_above_gg(self, db):
        rng = random.Random(67)
        for round_ in range(5):
            queries = [
                random_query(db.schema, rng, label=f"y{round_}.{i}")
                for i in range(4)
            ]
            gg = db.optimize(queries, "gg").est_cost_ms
            dp = db.optimize(queries, "dp").est_cost_ms
            assert dp <= gg + 1e-6


class TestScaling:
    def test_handles_batches_beyond_exhaustive(self, db):
        """8 queries x 7 tables: brute force would cost ~5.7M costings; DP
        stays in the thousands and still plans optimally (checked against
        GG as an upper bound)."""
        rng = random.Random(71)
        queries = [
            random_query(db.schema, rng, label=f"big{i}") for i in range(8)
        ]
        optimizer = DPOptimalOptimizer(db)
        plan = optimizer.optimize(queries)
        assert optimizer.model.n_plan_costings < 100_000
        gg = db.optimize(queries, "gg").est_cost_ms
        assert plan.est_cost_ms <= gg + 1e-6

    def test_budget_guard(self, db):
        queries = [
            GroupByQuery(groupby=GroupBy((2, 2)), label=f"n{i}")
            for i in range(MAX_QUERIES + 1)
        ]
        for name in ("optimal", "dp"):
            with pytest.raises(ValueError, match="DP budget"):
                db.optimize(queries, name)


class TestCorrectness:
    def test_plans_execute_correctly(self, db):
        rng = random.Random(73)
        queries = [random_query(db.schema, rng, label=f"c{i}") for i in range(4)]
        report = db.run_queries(queries, "dp")
        base = db.catalog.get("XY")
        for query in queries:
            expected = evaluate_reference(
                db.schema, base.table.all_rows(), query, base.levels
            )
            assert report.result_for(query).approx_equals(expected)

    def test_no_duplicate_sources(self, db):
        rng = random.Random(79)
        for round_ in range(4):
            queries = [
                random_query(db.schema, rng, label=f"s{round_}.{i}")
                for i in range(4)
            ]
            plan = db.optimize(queries, "dp")
            sources = [cls.source for cls in plan.classes]
            assert len(sources) == len(set(sources))
