"""Tests for operator-tree EXPLAIN output."""

import pytest

from repro.core.executor import run_class_accounted
from repro.core.explain import explain_class, explain_plan
from repro.core.operators.star_join import OPERATOR_LABELS
from repro.core.optimizer.cost import CostModel
from repro.core.optimizer.plans import DeriveStep, JoinMethod, LocalPlan
from repro.core.optimizer.plans import PlanClass
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


class TestOperatorNames:
    """Each operator kind has one name: EXPLAIN's title, the operator's
    actuals and its ``operator.<kind>`` span all read it from
    ``OPERATOR_LABELS`` (EXPLAIN titles the one-member hash class as the
    paper's Figure 1 plan)."""

    @pytest.mark.parametrize(
        "methods, kind, title",
        [
            ("HH", "shared_scan_hash", "SharedScanHashStarJoin"),
            ("H", "shared_scan_hash", "HashStarJoin"),
            ("HI", "shared_hybrid", "SharedHybridStarJoin"),
            ("HD", "shared_dag", "SharedDagStarJoin"),
            ("II", "shared_index", "SharedIndexStarJoin"),
            ("I", "index_star", "IndexStarJoin"),
        ],
    )
    def test_explain_actuals_and_span_agree(self, db, model, methods, kind, title):
        method = {"H": JoinMethod.HASH, "I": JoinMethod.INDEX, "D": JoinMethod.DERIVE}
        make = {"H": hash_query, "I": index_query, "D": hash_query}
        plans = [
            LocalPlan(make[m](f"{m}{i}"), "XY", method[m])
            for i, m in enumerate(methods)
        ]
        derived = tuple(p.query for p in plans if p.method is JoinMethod.DERIVE)
        derives = [DeriveStep(hash_query("inter"), derived)] if derived else []
        cls = PlanClass(source="XY", plans=plans, derives=derives)
        assert cls.operator_kind == kind
        with db.trace():
            _results, actuals = run_class_accounted(db.ctx(), cls)
        (span,) = [
            s for s in db.last_trace.walk() if s.name.startswith("operator.")
        ]
        assert span.name == f"operator.{kind}"
        label = OPERATOR_LABELS[kind]
        assert actuals.operator == span.attrs["actuals"]["operator"] == label
        assert explain_class(model, cls).startswith(f"{title} on XY")
        assert title == (label if methods != "H" else "HashStarJoin")


class TestExplainPlan:
    def test_full_plan(self, db):
        queries = [hash_query("p"), index_query("q")]
        plan = db.optimize(queries, "gg")
        text = explain_plan(db, plan)
        assert text.startswith("GlobalPlan[gg]")
        assert "2 queries" in text
        for cls in plan.classes:
            assert cls.source in text
