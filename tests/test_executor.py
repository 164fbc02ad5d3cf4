"""Tests for plan execution and measurement reporting."""

import pytest

from repro.core.executor import execute_plan, run_class_accounted
from repro.core.optimizer.plans import JoinMethod, LocalPlan, PlanClass
from repro.schema.query import DimPredicate, GroupBy, GroupByQuery

from helpers import make_tiny_db


@pytest.fixture(scope="module")
def db():
    return make_tiny_db(
        n_rows=600, materialized=("X'Y",), index_tables=("XY",)
    )


def queries():
    return [
        GroupByQuery(groupby=GroupBy((1, 1)), label="e1"),
        GroupByQuery(
            groupby=GroupBy((1, 2)),
            predicates=(DimPredicate(0, 0, frozenset({0})),),
            label="e2",
        ),
    ]


class TestRunClass:
    def test_pure_hash_class(self, db):
        qs = queries()
        cls = PlanClass(
            source="XY",
            plans=[LocalPlan(q, "XY", JoinMethod.HASH) for q in qs],
        )
        results, _actuals = run_class_accounted(db.ctx(), cls)
        assert [r.query.qid for r in results] == [q.qid for q in qs]

    def test_pure_index_class_single(self, db):
        q = queries()[1]
        cls = PlanClass(source="XY", plans=[LocalPlan(q, "XY", JoinMethod.INDEX)])
        results, _actuals = run_class_accounted(db.ctx(), cls)
        assert len(results) == 1

    def test_pure_index_class_shared(self, db):
        qs = [
            GroupByQuery(
                groupby=GroupBy((1, 2)),
                predicates=(DimPredicate(0, 0, frozenset({i})),),
                label=f"i{i}",
            )
            for i in (0, 1)
        ]
        cls = PlanClass(
            source="XY",
            plans=[LocalPlan(q, "XY", JoinMethod.INDEX) for q in qs],
        )
        results, _actuals = run_class_accounted(db.ctx(), cls)
        assert len(results) == 2

    def test_mixed_class_preserves_plan_order(self, db):
        qs = queries()
        cls = PlanClass(
            source="XY",
            plans=[
                LocalPlan(qs[0], "XY", JoinMethod.HASH),
                LocalPlan(qs[1], "XY", JoinMethod.INDEX),
            ],
        )
        results, _actuals = run_class_accounted(db.ctx(), cls)
        assert [r.query.qid for r in results] == [q.qid for q in qs]


class TestExecutePlan:
    def test_report_structure(self, db):
        qs = queries()
        plan = db.optimize(qs, "gg")
        report = execute_plan(db, plan)
        assert report.plan is plan
        assert len(report.class_executions) == len(plan.classes)
        assert set(report.results) == {q.qid for q in qs}
        assert report.sim_ms == pytest.approx(
            sum(e.sim_ms for e in report.class_executions)
        )
        assert report.sim_ms == pytest.approx(
            report.sim_io_ms + report.sim_cpu_ms
        )
        assert report.wall_s > 0

    def test_summary_mentions_algorithm(self, db):
        report = db.run_queries(queries(), "tplo")
        assert "tplo" in report.summary()

    def test_result_for(self, db):
        qs = queries()
        report = db.run_queries(qs, "gg")
        assert report.result_for(qs[0]).query.qid == qs[0].qid
        with pytest.raises(KeyError):
            report.results[999999]

    def test_cold_execution_reproducible(self, db):
        """Cold runs are deterministic: same plan, same simulated cost."""
        qs = queries()
        plan = db.optimize(qs, "gg")
        first = execute_plan(db, plan, cold=True)
        second = execute_plan(db, plan, cold=True)
        assert first.sim_ms == pytest.approx(second.sim_ms)

    def test_warm_execution_cheaper_or_equal(self, db):
        qs = queries()
        plan = db.optimize(qs, "gg")
        execute_plan(db, plan, cold=True)  # populate the pool
        warm = execute_plan(db, plan, cold=False)
        cold = execute_plan(db, plan, cold=True)
        assert warm.sim_io_ms <= cold.sim_io_ms + 1e-9
