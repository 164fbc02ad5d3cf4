"""Tests for EXPLAIN ANALYZE (``explain_plan`` handed an execution report),
and the committed golden renderings of the one explain surface."""

import re
from pathlib import Path

import pytest

from repro.core.explain import explain_plan, member_estimates
from repro.core.optimizer.cost import CostModel
from repro.core.optimizer.plans import (
    GlobalPlan,
    JoinMethod,
    LocalPlan,
    PlanClass,
)
from repro.schema.query import DimPredicate, GroupBy, GroupByQuery
from repro.workload.paper_queries import ALL_PAPER_TESTS, paper_queries
from repro.workload.paper_schema import build_paper_database

from helpers import make_tiny_db

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def db():
    return make_tiny_db(n_rows=400, materialized=("X'Y'",), index_tables=("XY",))


class TestExplainAnalyze:
    def test_contains_trees_and_measurements(self, db):
        queries = [
            GroupByQuery(groupby=GroupBy((1, 1)), label="ea1"),
            GroupByQuery(
                groupby=GroupBy((1, 2)),
                predicates=(DimPredicate(0, 0, frozenset({0})),),
                label="ea2",
            ),
        ]
        plan = db.optimize(queries, "gg")
        report = db.execute(plan)
        text = explain_plan(db, plan, report)
        assert report.summary() in text
        assert "est" in text and "actual" in text
        assert "%" in text
        for cls in plan.classes:
            assert cls.source in text

    def test_report_of_another_plan_is_refused(self, db):
        query = GroupByQuery(groupby=GroupBy((1, 1)), label="mismatch")
        report = db.execute(db.optimize([query], "gg"))
        with pytest.raises(ValueError, match="not an execution of this plan"):
            explain_plan(db, db.optimize([query], "gg"), report)

    def test_gap_small_for_hash_plans(self, db):
        """Hash estimates share formulas with the charges, so the analyzed
        gap must be tight."""
        query = GroupByQuery(groupby=GroupBy((1, 1)), label="tight")
        plan = db.optimize([query], "gg")
        report = db.execute(plan)
        est = plan.classes[0].est_cost_ms
        actual = report.class_executions[0].sim_ms
        assert actual == pytest.approx(est, rel=0.35)

    def test_hand_built_class_gets_real_estimates(self, db):
        """Per-member estimates come from the model at render time, not
        from the plan, so a class nobody optimized still shows them (it
        printed 0.0 / 0.0 while ``LocalPlan`` stored the fields)."""
        queries = [
            GroupByQuery(groupby=GroupBy((1, 1)), label="hb1"),
            GroupByQuery(groupby=GroupBy((2, 1)), label="hb2"),
        ]
        hand_built = PlanClass(
            source="XY",
            plans=[LocalPlan(q, "XY", JoinMethod.HASH) for q in queries],
        )
        plan = GlobalPlan(algorithm="manual", classes=[hand_built])
        text = explain_plan(db, plan, db.execute(plan))
        estimates = member_estimates(CostModel.for_database(db), hand_built)
        for query, (standalone, marginal) in zip(queries, estimates):
            # Sharing the scan is the point: a member's marginal is a
            # fraction of what it would cost alone.
            assert 0.0 < marginal < standalone
            assert (
                f"{query.label} [hash]: est standalone {standalone:.1f} / "
                f"marginal {marginal:.1f} sim-ms"
            ) in text

    def test_tplo_marginal_is_leave_one_out(self, paper_db, paper_qs):
        """TPLO used to store each member's standalone cost as its
        "marginal"; one formula now serves every optimizer."""
        batch = [paper_qs[i] for i in ALL_PAPER_TESTS["test1"]]
        tplo = paper_db.optimize(batch, "tplo")
        shared = next(cls for cls in tplo.classes if len(cls.plans) > 1)
        model = CostModel.for_database(paper_db)
        for standalone, marginal in member_estimates(model, shared):
            assert marginal < 0.1 * standalone


def _masked(text: str, first_qid: int) -> str:
    """Wall figures out; raw qids (process-global counters) as offsets from
    the paper queries' first."""
    text = re.sub(r"wall [0-9.]+ ms", "wall <W> ms", text)
    return re.sub(
        r"\bQ(\d+)\b", lambda m: f"Q#{int(m.group(1)) - first_qid}", text
    )


class TestGolden:
    """``explain_plan`` against the text the parent's three renderers
    printed (``core.explain.explain_plan`` + ``dag.explain.render_dag``,
    and ``ExecutionReport.explain_analyze``), at scale 0.01."""

    @pytest.fixture(scope="class")
    def golden_db(self):
        # Private: estimates move with statistics and rates, which other
        # tests may set on the shared session database.
        return build_paper_database(scale=0.01)

    @pytest.mark.parametrize(
        "test, algorithm", [("test5", "gg"), ("test5", "dag"), ("test2", "gg")]
    )
    def test_matches_parent_renderers(self, golden_db, test, algorithm):
        qs = paper_queries(golden_db.schema)
        first_qid = min(q.qid for q in qs.values())
        plan = golden_db.optimize(
            [qs[i] for i in ALL_PAPER_TESTS[test]], algorithm
        )
        report = golden_db.execute(plan)
        stem = f"explain_{test}_{algorithm}"
        assert _masked(explain_plan(golden_db, plan), first_qid) + "\n" == (
            GOLDEN / f"{stem}.txt"
        ).read_text()
        assert _masked(
            explain_plan(golden_db, plan, report), first_qid
        ) + "\n" == (GOLDEN / f"{stem}_analyze.txt").read_text()
