"""Plan accounting: operator actuals, the est-vs-actual figures an executed
class carries, Q-error, and misranking detection."""

import math

import pytest

from repro.bench.harness import AlgorithmRow
from repro.calibrate import Misranking, find_misrankings
from repro.core.executor import execute_plan, run_class_accounted
from repro.core.operators.hash_join import SharedScanStarJoin
from repro.core.operators.index_join import (
    SharedIndexStarJoin,
    query_result_bitmap,
)
from repro.core.operators.results import OperatorActuals, q_error
from repro.core.optimizer.plans import JoinMethod, LocalPlan, PlanClass
from repro.schema.query import DimPredicate, GroupBy, GroupByQuery

from helpers import make_tiny_db


@pytest.fixture(scope="module")
def db():
    return make_tiny_db(n_rows=600, materialized=("X'Y",), index_tables=("XY",))


def index_query(member, label=""):
    """Level-0 equality predicate: each row has exactly one level-0 member
    per dimension, so different members give *disjoint* result bitmaps."""
    return GroupByQuery(
        groupby=GroupBy((1, 2)),
        predicates=(DimPredicate(0, 0, frozenset({member})),),
        label=label or f"m{member}",
    )


class TestQError:
    def test_perfect(self):
        assert q_error(10.0, 10.0) == 1.0

    def test_symmetric(self):
        assert q_error(5.0, 10.0) == q_error(10.0, 5.0) == 2.0

    def test_degenerate(self):
        assert q_error(0.0, 0.0) == 1.0
        assert math.isinf(q_error(0.0, 5.0))
        assert math.isinf(q_error(5.0, 0.0))


class TestSharedIndexActuals:
    def run_shared(self, db, queries):
        op = SharedIndexStarJoin(db.ctx(), "XY", queries)
        op.run()
        return op.actuals

    def test_probe_count_equals_union_bitmap_popcount(self, db):
        queries = [index_query(0), index_query(1), index_query(2)]
        actuals = self.run_shared(db, queries)
        # Independently recompute each query's result bitmap and OR them:
        # the operator must probe exactly the union, never more.
        ctx = db.ctx()
        entry = db.catalog.get("XY")
        union = None
        for query in queries:
            bitmap = query_result_bitmap(ctx, entry, query, OperatorActuals(""))
            union = bitmap if union is None else (union | bitmap)
        assert actuals.union_popcount == union.count()
        assert actuals.probes_issued == actuals.union_popcount

    def test_per_query_routed_equals_own_bitmap_popcount(self, db):
        queries = [index_query(0), index_query(1)]
        actuals = self.run_shared(db, queries)
        ctx = db.ctx()
        entry = db.catalog.get("XY")
        for query in queries:
            bitmap = query_result_bitmap(ctx, entry, query, OperatorActuals(""))
            qid = query.qid
            assert actuals.bitmap_popcounts[qid] == bitmap.count()
            assert actuals.tuples_routed[qid] == actuals.bitmap_popcounts[qid]
            # Routed tuples are exactly what the query's pipeline consumed.
            assert actuals.rows_in[qid] == actuals.tuples_routed[qid]
            # Every probed tuple was tested against this query's bitmap.
            assert actuals.tuples_tested[qid] == actuals.probes_issued

    def test_disjoint_queries_routed_sums_to_probes(self, db):
        # Level-0 members partition the rows, so the bitmaps are disjoint
        # and every probed tuple routes to exactly one query.
        queries = [index_query(m) for m in (0, 1, 2)]
        actuals = self.run_shared(db, queries)
        assert sum(actuals.tuples_routed.values()) == actuals.probes_issued
        assert actuals.probes_issued > 0


class TestSharedScanActuals:
    def test_scan_counters_match_table(self, db):
        queries = [
            GroupByQuery(groupby=GroupBy((1, 1)), label="h1"),
            GroupByQuery(groupby=GroupBy((2, 1)), label="h2"),
        ]
        op = SharedScanStarJoin(db.ctx(), "XY", queries)
        op.run()
        entry = db.catalog.get("XY")
        assert op.actuals.rows_scanned == entry.n_rows
        assert op.actuals.pages_scanned == entry.n_pages
        # A shared scan feeds every row to every query's pipeline.
        for query in queries:
            assert op.actuals.rows_in[query.qid] == entry.n_rows


class TestExecutorAccounting:
    def plan_class(self, queries, method):
        return PlanClass(
            source="XY",
            plans=[LocalPlan(q, "XY", method) for q in queries],
        )

    def test_run_class_accounted_returns_actuals(self, db):
        queries = [index_query(0), index_query(1)]
        results, actuals = run_class_accounted(
            db.ctx(), self.plan_class(queries, JoinMethod.INDEX)
        )
        assert len(results) == 2
        assert actuals.operator == "SharedIndexStarJoin"
        assert actuals.probes_issued == actuals.union_popcount

    def test_execution_report_carries_accounting(self, db):
        queries = [
            GroupByQuery(groupby=GroupBy((1, 1)), label="a"),
            GroupByQuery(groupby=GroupBy((1, 2)), label="b"),
        ]
        plan = db.optimize(queries, "gg")
        report = execute_plan(db, plan)
        assert len(report.class_executions) == len(plan.classes)
        for execution in report.class_executions:
            plan_class = execution.plan_class
            assert execution.est_ms == plan_class.est_cost_ms
            assert execution.sim_ms == execution.sim.total_ms
            assert execution.q_error == q_error(
                execution.est_ms, execution.sim_ms
            )
            assert set(execution.actuals.rows_in) == {
                q.qid for q in plan_class.queries
            }
        assert sum(
            e.sim_ms for e in report.class_executions
        ) == pytest.approx(report.sim_ms)

    def test_operator_span_carries_actuals(self, db):
        queries = [index_query(0), index_query(1)]
        with db.trace():
            run_class_accounted(
                db.ctx(), self.plan_class(queries, JoinMethod.INDEX)
            )
        spans = [
            s
            for s in db.last_trace.walk()
            if s.name.startswith("operator.")
        ]
        assert len(spans) == 1
        dumped = spans[0].attrs["actuals"]
        assert dumped["operator"] == "SharedIndexStarJoin"
        assert dumped["probes_issued"] == dumped["union_popcount"]

    def test_account_execution_pipeline_cpu(self, db):
        queries = [index_query(0, label="solo")]
        plan = db.optimize(queries, "gg")
        report = execute_plan(db, plan)
        actuals = report.class_executions[0].actuals
        qid = queries[0].qid
        assert actuals.rows_in[qid] >= actuals.rows_passed[qid] >= 0
        assert actuals.pipeline_cpu_ms[qid] >= 0.0
        assert actuals.n_groups[qid] == report.results[qid].n_groups


def outcome(test, algorithm, est, actual, plan):
    return AlgorithmRow(
        test=test, algorithm=algorithm, est_ms=est, sim_ms=actual,
        n_classes=1, plan=plan,
    )


class TestFindMisrankings:
    def test_detects_inversion(self):
        plans = [
            outcome("t", "a", 100.0, 300.0, "P1"),
            outcome("t", "b", 200.0, 150.0, "P2"),
        ]
        found = find_misrankings(plans)
        assert len(found) == 1
        assert found[0].cheap_est.algorithm == "a"
        assert found[0].cheap_actual.algorithm == "b"
        assert found[0].est_gap == pytest.approx(1.0)
        assert found[0].actual_gap == pytest.approx(1.0)

    def test_gaps_guard_their_divisors(self):
        """A zero on the numerator side is a gap of -1, not ``inf``; a zero
        divisor is ``inf``, not ``ZeroDivisionError``."""
        zero_numerators = Misranking(
            test="t",
            cheap_est=outcome("t", "a", 100.0, 0.0, "P1"),
            cheap_actual=outcome("t", "b", 0.0, 150.0, "P2"),
        )
        assert zero_numerators.est_gap == -1.0
        assert zero_numerators.actual_gap == -1.0
        zero_divisors = Misranking(
            test="t",
            cheap_est=outcome("t", "a", 0.0, 300.0, "P1"),
            cheap_actual=outcome("t", "b", 200.0, 0.0, "P2"),
        )
        assert math.isinf(zero_divisors.est_gap)
        assert math.isinf(zero_divisors.actual_gap)
        assert "model inversion" in zero_divisors.explanation()

    def test_consistent_ranking_is_clean(self):
        plans = [
            outcome("t", "a", 100.0, 110.0, "P1"),
            outcome("t", "b", 200.0, 220.0, "P2"),
        ]
        assert find_misrankings(plans) == []

    def test_identical_plans_never_invert(self):
        # gg and optimal often converge on the same plan; deterministic
        # costs can still jitter across cold runs only if the plan differs.
        plans = [
            outcome("t", "gg", 100.0, 150.0, "SAME"),
            outcome("t", "optimal", 101.0, 149.0, "SAME"),
        ]
        assert find_misrankings(plans) == []

    def test_ties_within_margin_skipped(self):
        plans = [
            outcome("t", "a", 100.0, 100.4, "P1"),
            outcome("t", "b", 100.5, 100.0, "P2"),
        ]
        assert find_misrankings(plans) == []

    def test_cross_test_pairs_not_compared(self):
        plans = [
            outcome("t1", "a", 100.0, 300.0, "P1"),
            outcome("t2", "b", 200.0, 150.0, "P2"),
        ]
        assert find_misrankings(plans) == []

    def test_misranking_explanation_modes(self):
        big = Misranking(
            test="t",
            cheap_est=outcome("t", "a", 100.0, 300.0, "P1"),
            cheap_actual=outcome("t", "b", 200.0, 150.0, "P2"),
        )
        assert "model inversion" in big.explanation()
        near = Misranking(
            test="t",
            cheap_est=outcome("t", "a", 100.0, 103.0, "P1"),
            cheap_actual=outcome("t", "b", 102.0, 100.0, "P2"),
        )
        assert "near-tie" in near.explanation()
