"""The AND-OR plan-DAG optimizer (``repro.dag``).

Covers the subsystem's whole contract at tier-1 scale:

* registration: ``dag`` is a first-class algorithm in the optimizer
  registry, the CLI, and the calibration sweep (which now derives its
  algorithm list from the registry instead of a hard-coded tuple);
* DAG construction: structurally identical sub-aggregates unify into one
  OR-node; candidate intermediates are the per-kind meet closure;
* search: greedy materialization never makes the plan worse than its GG
  seed (monotone accept rule), and its stats survive into
  ``GlobalPlan.search_stats``;
* execution: derive steps produce byte-identical answers to the naive
  reference;
* validation: the DERIVE method is rejected outside DAG classes;
* rendering: ``explain_plan`` shows the DAG block, the materialized
  intermediates and their derived pipelines.
"""

from __future__ import annotations

import random

import pytest

from repro.check import first_divergence, reference_answer
from repro.check.errors import PlanValidationError
from repro.core.optimizer import OPTIMIZERS, make_optimizer
from repro.core.optimizer.plans import (
    GlobalPlan,
    JoinMethod,
    LocalPlan,
    PlanClass,
    SearchStats,
)
from repro.core.explain import explain_plan
from repro.dag import DagOptimizer, DagSearch, build_dag, node_key
from repro.dag import search as dag_search
from repro.obs.metrics import MetricsRegistry, set_default_registry
from repro.schema.query import Aggregate, DimPredicate, GroupBy, GroupByQuery
from repro.workload.paper_queries import ALL_PAPER_TESTS

from helpers import make_tiny_db, random_query


def tiny_queries():
    return [
        GroupByQuery(groupby=GroupBy((1, 1)), label="a"),
        GroupByQuery(groupby=GroupBy((2, 1)), label="b"),
        GroupByQuery(
            groupby=GroupBy((0, 1)),
            predicates=(DimPredicate(1, 1, frozenset({0, 1})),),
            label="c",
        ),
        GroupByQuery(groupby=GroupBy((2, 2)), label="d"),
    ]


class TestRegistration:
    def test_dag_is_registered(self):
        assert "dag" in OPTIMIZERS
        assert OPTIMIZERS["dag"] is DagOptimizer

    def test_make_optimizer_builds_dag(self):
        db = make_tiny_db(n_rows=200)
        optimizer = make_optimizer("dag", db)
        assert optimizer.name == "dag"

    def test_cli_algorithms_track_the_registry(self):
        from repro.cli import ALGORITHMS

        assert set(ALGORITHMS) == set(OPTIMIZERS)

    def test_calibration_algorithms_derive_from_registry(self, monkeypatch):
        """Regression: `repro calibrate` used to sweep a hard-coded tuple
        that silently skipped newly registered algorithms."""
        from repro.calibrate import calibration_algorithms

        swept = calibration_algorithms()
        assert "dag" in swept
        assert "bgg" in swept
        # Opt-outs are honored: the unmerged baseline stays out of the sweep.
        assert "naive" not in swept

        class FakeOptimizer:
            in_calibration = True

        class ShyOptimizer:
            in_calibration = False

        monkeypatch.setitem(OPTIMIZERS, "fake", FakeOptimizer)
        monkeypatch.setitem(OPTIMIZERS, "shy", ShyOptimizer)
        swept = calibration_algorithms()
        assert "fake" in swept
        assert "shy" not in swept


class TestDagConstruction:
    def test_identical_subaggregates_unify(self):
        db = make_tiny_db(n_rows=200)
        twin_a = GroupByQuery(groupby=GroupBy((1, 1)), label="t1")
        twin_b = GroupByQuery(groupby=GroupBy((1, 1)), label="t2")
        other = GroupByQuery(groupby=GroupBy((2, 0)), label="o")
        dag = build_dag(db.schema, db.catalog, [twin_a, twin_b, other])
        assert dag.result_keys[twin_a.qid] == dag.result_keys[twin_b.qid]
        assert dag.result_keys[other.qid] != dag.result_keys[twin_a.qid]
        unified = dag.nodes[dag.result_keys[twin_a.qid]]
        assert unified.is_unified
        assert dag.n_unified >= 1

    def test_predicates_split_or_nodes(self):
        db = make_tiny_db(n_rows=200)
        plain = GroupByQuery(groupby=GroupBy((1, 1)), label="p")
        filtered = GroupByQuery(
            groupby=GroupBy((1, 1)),
            predicates=(DimPredicate(0, 1, frozenset({0})),),
            label="f",
        )
        dag = build_dag(db.schema, db.catalog, [plain, filtered])
        assert dag.result_keys[plain.qid] != dag.result_keys[filtered.qid]

    def test_candidates_close_under_meet(self):
        db = make_tiny_db(n_rows=200)
        a = GroupByQuery(groupby=GroupBy((0, 2)), label="a")
        b = GroupByQuery(groupby=GroupBy((2, 0)), label="b")
        dag = build_dag(db.schema, db.catalog, [a, b])
        # meet((0,2), (2,0)) = (0,0): fine enough to derive both.
        meet_key = node_key("sum", (0, 0))
        assert meet_key in dag.candidate_keys
        meet_node = dag.nodes[meet_key]
        assert set(meet_node.consumers) >= {a.qid, b.qid}

    def test_avg_has_no_derive_alternatives(self):
        db = make_tiny_db(n_rows=200)
        avg = GroupByQuery(
            groupby=GroupBy((1, 1)), aggregate=Aggregate.AVG, label="avg"
        )
        dag = build_dag(db.schema, db.catalog, [avg])
        node = dag.nodes[dag.result_keys[avg.qid]]
        assert all(alt.op == "scan-join" for alt in node.alternatives)
        assert not dag.candidate_keys


class TestDagPlanning:
    def test_est_never_worse_than_gg(self, paper_db, paper_qs):
        for test in ("test1", "test4", "test6"):
            batch = [paper_qs[i] for i in ALL_PAPER_TESTS[test]]
            gg = paper_db.optimize(batch, "gg")
            dag = paper_db.optimize(batch, "dag")
            assert dag.est_cost_ms <= gg.est_cost_ms + 1e-9, test

    def test_paper_test1_materializes_an_intermediate(self, paper_db,
                                                      paper_qs):
        batch = [paper_qs[i] for i in (1, 2, 3, 4)]
        plan = paper_db.optimize(batch, "dag")
        assert any(cls.derives for cls in plan.classes)
        stats = plan.search_stats.dag
        assert stats.materializations
        assert stats.dag.n_unified >= 1
        assert stats.final_est_ms <= stats.initial_est_ms + 1e-9

    def test_search_stats_survive_database_optimize(self, paper_db,
                                                    paper_qs):
        """Regression: Database.optimize used to overwrite search_stats,
        dropping optimizer-specific planning metadata."""
        plan = paper_db.optimize([paper_qs[i] for i in (1, 2, 3)], "dag")
        stats = plan.search_stats
        assert isinstance(stats, SearchStats)
        assert isinstance(stats.dag, DagSearch)
        assert stats.plan_costings > 0
        assert stats.member_terms > 0
        assert stats.planning_s > 0.0

    @pytest.mark.parametrize("budget", (1, dag_search.MAX_ITERATIONS))
    def test_search_iterations_count_passes_run(self, paper_db, paper_qs,
                                                monkeypatch, budget):
        """``dag.search_iterations`` and explain's ``search: N
        iteration(s)`` count the passes the search loop ran: one per
        accepted move, plus the pass that found none — unless the budget
        stopped the search first.  (They used to count accepted moves.)"""
        from repro.obs.metrics import MetricsRegistry, set_default_registry

        monkeypatch.setattr(dag_search, "MAX_ITERATIONS", budget)
        registry = MetricsRegistry()
        previous = set_default_registry(registry)
        try:
            plan = paper_db.optimize([paper_qs[i] for i in (1, 2, 3, 4)],
                                     "dag")
        finally:
            set_default_registry(previous)
        search = plan.search_stats.dag
        accepted = len(search.materializations)
        assert accepted >= 1
        stopped_by_budget = accepted == budget
        assert search.passes == accepted + (not stopped_by_budget)
        counted = registry.get("dag.search_iterations").value
        assert counted == search.passes
        assert f"search: {search.passes} iteration(s)," in explain_plan(
            paper_db, plan
        )

    def test_dag_emits_metrics_and_spans(self, paper_db, paper_qs):
        from repro.obs.metrics import MetricsRegistry, set_default_registry

        registry = MetricsRegistry()
        previous = set_default_registry(registry)
        try:
            with paper_db.trace() as _:
                paper_db.optimize([paper_qs[i] for i in (1, 2, 3, 4)], "dag")
        finally:
            set_default_registry(previous)
        names = set(registry.names())
        assert "dag.nodes" in names
        assert "dag.unified_subexpressions" in names
        assert "dag.materializations" in names
        assert "dag.search_iterations" in names
        spans = [s.name for s in paper_db.last_trace.walk()]
        for name in ("dag.seed", "dag.build", "dag.search", "dag.lower"):
            assert name in spans, name


class TestDagExecution:
    def test_matches_naive_reference_on_tiny_db(self):
        db = make_tiny_db(n_rows=400, materialized=("X'Y'",))
        batch = tiny_queries()
        plan = db.optimize(batch, "dag")
        report = db.execute(plan)
        assert not report.failures
        for query in batch:
            divergence = first_divergence(
                reference_answer(db, query).groups,
                report.result_for(query).groups,
            )
            assert divergence is None, divergence.describe()

    def test_matches_reference_on_random_workloads(self):
        db = make_tiny_db(n_rows=300, seed=11)
        rng = random.Random(77)
        batch = [random_query(db.schema, rng, label=f"D{i}") for i in range(6)]
        report = db.run_queries(batch, "dag")
        for query in batch:
            divergence = first_divergence(
                reference_answer(db, query).groups,
                report.result_for(query).groups,
            )
            assert divergence is None, divergence.describe()

    def test_derive_execution_is_byte_identical(self, paper_db, paper_qs):
        """The Test-1 dag plan actually derives (not just plans to), and
        its answers equal the naive reference exactly."""
        batch = [paper_qs[i] for i in (1, 2, 3, 4)]
        plan = paper_db.optimize(batch, "dag")
        assert any(cls.derives for cls in plan.classes)
        registry = MetricsRegistry()
        previous = set_default_registry(registry)
        try:
            report = paper_db.execute(plan)
        finally:
            set_default_registry(previous)
        assert not report.failures
        derived = sum(e.actuals.derive_rows for e in report.class_executions)
        assert registry.get("executor.derive_rows").value == derived > 0
        naive = paper_db.execute(paper_db.optimize(batch, "naive"))
        for query in batch:
            got = report.result_for(query)
            want = naive.result_for(query)
            assert got.groups == want.groups, query.display_name()

    def test_derive_fault_site_is_registered(self):
        from repro.faults import SITES

        assert "operator.derive" in SITES


class TestValidation:
    def test_derive_method_rejected_outside_dag_class(self):
        from repro.check.validate import validate_class

        db = make_tiny_db(n_rows=200)
        query = GroupByQuery(groupby=GroupBy((1, 1)), label="v")
        plan_class = PlanClass(
            source="XY",
            plans=[
                LocalPlan(query=query, source="XY", method=JoinMethod.DERIVE)
            ],
            est_cost_ms=1.0,
        )
        with pytest.raises(PlanValidationError, match="DERIVE"):
            validate_class(db.schema, db.catalog, plan_class)

    def test_dag_plans_pass_paranoid_validation(self, paper_db, paper_qs):
        from repro.check.validate import check_coverage, validate_global_plan

        batch = [paper_qs[i] for i in (1, 2, 3, 4)]
        plan = paper_db.optimize(batch, "dag")
        check_coverage(plan, batch)
        validate_global_plan(paper_db.schema, paper_db.catalog, plan)


class TestRendering:
    def test_render_dag_shows_nodes_and_choices(self, paper_db, paper_qs):
        plan = paper_db.optimize([paper_qs[i] for i in (1, 2, 3, 4)], "dag")
        rendered = explain_plan(paper_db, plan)
        assert "PlanDAG" in rendered
        assert "AND scan-join" in rendered
        assert "chosen host" in rendered

    def test_render_dag_is_none_for_other_algorithms(self, paper_db,
                                                     paper_qs):
        plan = paper_db.optimize([paper_qs[i] for i in (1, 2, 3)], "gg")
        assert "PlanDAG" not in explain_plan(paper_db, plan)

    def test_explain_renders_materialize_and_derive_lines(self, paper_db,
                                                          paper_qs):
        plan = paper_db.optimize([paper_qs[i] for i in (1, 2, 3, 4)], "dag")
        text = explain_plan(paper_db, plan)
        assert "SharedDagStarJoin" in text
        assert "materialize" in text
        assert "derive" in text
