"""Tests for operator-tree EXPLAIN output."""

import pytest

from repro.core.explain import explain_class, explain_plan
from repro.core.optimizer.cost import CostModel
from repro.core.optimizer.plans import JoinMethod, LocalPlan, PlanClass
from repro.schema.query import DimPredicate, GroupBy, GroupByQuery

from helpers import make_tiny_db


@pytest.fixture(scope="module")
def db():
    return make_tiny_db(n_rows=400, materialized=("X'Y'",), index_tables=("XY",))


@pytest.fixture(scope="module")
def model(db):
    return CostModel.for_database(db)


def hash_query(label="h"):
    return GroupByQuery(groupby=GroupBy((1, 1)), label=label)


def index_query(label="i"):
    return GroupByQuery(
        groupby=GroupBy((1, 2)),
        predicates=(DimPredicate(0, 0, frozenset({0})),),
        label=label,
    )


def residual_query(label="r"):
    # Predicate on Y at a level indexed, plus one the view lacks indexes for.
    return GroupByQuery(
        groupby=GroupBy((1, 2)),
        predicates=(
            DimPredicate(0, 0, frozenset({0})),
            DimPredicate(1, 2, frozenset({1})),
        ),
        label=label,
    )


class TestExplainClass:
    def test_shared_scan_tree(self, model):
        cls = PlanClass(
            source="XY",
            plans=[
                LocalPlan(hash_query("a"), "XY", JoinMethod.HASH),
                LocalPlan(hash_query("b"), "XY", JoinMethod.HASH),
            ],
        )
        text = explain_class(model, cls)
        assert text.startswith("SharedScanHashStarJoin on XY")
        assert "SeqScan(XY)" in text
        assert "rollup X -> X'" in text
        assert text.count("aggregate[SUM]") == 2

    def test_single_hash_named_plainly(self, model):
        cls = PlanClass(
            source="XY",
            plans=[LocalPlan(hash_query(), "XY", JoinMethod.HASH)],
        )
        assert explain_class(model, cls).startswith(
            "HashStarJoin on XY"
        )

    def test_shared_index_tree(self, model):
        cls = PlanClass(
            source="XY",
            plans=[
                LocalPlan(index_query("a"), "XY", JoinMethod.INDEX),
                LocalPlan(index_query("b"), "XY", JoinMethod.INDEX),
            ],
        )
        text = explain_class(model, cls)
        assert text.startswith("SharedIndexStarJoin on XY")
        assert "OR the per-query bitmaps" in text
        assert "Filter tuples" in text
        assert "OR bitmaps: X" in text

    def test_hybrid_tree(self, model):
        cls = PlanClass(
            source="XY",
            plans=[
                LocalPlan(hash_query(), "XY", JoinMethod.HASH),
                LocalPlan(index_query(), "XY", JoinMethod.INDEX),
            ],
        )
        text = explain_class(model, cls)
        assert text.startswith("SharedHybridStarJoin on XY")
        assert "filters the scan, no probe I/O" in text
        assert "SeqScan(XY)" in text

    def test_residual_predicate_labelled(self, model):
        cls = PlanClass(
            source="XY",
            plans=[LocalPlan(residual_query(), "XY", JoinMethod.INDEX)],
        )
        text = explain_class(model, cls)
        # Y'' has no usable index on XY... the leaf index covers it though;
        # the X predicate uses its index either way.
        assert "OR bitmaps: X" in text

    def test_clustered_flag_shown(self, model):
        cls = PlanClass(
            source="X'Y'",
            plans=[LocalPlan(hash_query(), "X'Y'", JoinMethod.HASH)],
        )
        assert "clustered" in explain_class(model, cls)


class TestExplainPlan:
    def test_full_plan(self, db):
        queries = [hash_query("p"), index_query("q")]
        plan = db.optimize(queries, "gg")
        text = explain_plan(db, plan)
        assert text.startswith("GlobalPlan[gg]")
        assert "2 queries" in text
        for cls in plan.classes:
            assert cls.source in text
