"""DagOptimizer: algorithm ``"dag"`` — GG seeding, AND-OR DAG build,
greedy materialization, and lowering back to the engine's plan form.

The pipeline is four traced phases:

* ``dag.seed`` — GG's growth step on this optimizer's cost model (so
  planning effort adds up): the best class-granular assignment, as
  (base table, members) classes — no plan is finalized for it;
* ``dag.build`` — build the AND-OR DAG (:func:`repro.dag.nodes.build_dag`):
  structurally-hashed result nodes plus candidate shared intermediates;
* ``dag.search`` — greedy materialization
  (:func:`repro.dag.search.greedy_search`): monotone cost-improving moves
  from the GG seed, so the final estimate is never above GG's;
* ``dag.lower`` — each searched class becomes a
  :class:`~repro.core.optimizer.plans.PlanClass` carrying its derive steps
  as they are (:func:`~repro.core.optimizer.base.build_plan_class`), costed
  once, unbiased.

Everything downstream — executor, paranoia checker, actuals ledger, serve
batching, shard scatter-gather — consumes the resulting
:class:`~repro.core.optimizer.plans.GlobalPlan` unchanged.
"""

from __future__ import annotations

from typing import Sequence

from ..core.optimizer.base import Optimizer, build_plan_class
from ..core.optimizer.greedy import GGOptimizer
from ..core.optimizer.plans import GlobalPlan
from ..obs.metrics import default_registry
from ..schema.query import GroupByQuery
from .nodes import build_dag
from .search import DagClass, greedy_search


class DagOptimizer(Optimizer):
    """AND-OR plan-DAG optimizer with cross-class sub-aggregate sharing."""

    name = "dag"

    def optimize(self, queries: Sequence[GroupByQuery]) -> GlobalPlan:
        queries = self._check_input(queries)
        metrics = default_registry()
        with self.tracer.span("dag.seed", n_queries=len(queries)) as span:
            seed_classes = [
                DagClass(entry=cls.entry, scan_queries=cls.queries)
                for cls in GGOptimizer(self.db, model=self.model).grow(queries)
            ]
            span.set("n_classes", len(seed_classes))
        with self.tracer.span("dag.build") as span:
            dag = build_dag(self.db.schema, self.db.catalog, queries)
            span.set("n_or_nodes", dag.n_or_nodes)
            span.set("n_and_nodes", dag.n_and_nodes)
            span.set("n_unified", dag.n_unified)
        metrics.counter(
            "dag.nodes", "AND-OR DAG nodes built during dag planning"
        ).inc(dag.n_or_nodes + dag.n_and_nodes)
        metrics.counter(
            "dag.unified_subexpressions",
            "structurally-hashed sub-expressions shared by >=2 queries",
        ).inc(dag.n_unified)
        with self.tracer.span("dag.search") as span:
            classes, stats = greedy_search(
                self.model, dag, seed_classes, queries
            )
            span.set("iterations", stats.iterations)
            span.set("moves_evaluated", stats.moves_evaluated)
            span.set("materializations", len(stats.materializations))
            span.set("initial_est_ms", round(stats.initial_est_ms, 3))
            span.set("final_est_ms", round(stats.final_est_ms, 3))
        metrics.counter(
            "dag.materializations",
            "shared intermediates the greedy search chose to materialize",
        ).inc(len(stats.materializations))
        metrics.counter(
            "dag.search_iterations", "greedy materialization iterations run"
        ).inc(max(1, stats.iterations))
        with self.tracer.span("dag.lower", n_classes=len(classes)):
            lowered = [
                build_plan_class(
                    self.model, cls.entry, cls.scan_queries, cls.steps
                )
                for cls in classes
            ]
            plan = GlobalPlan(algorithm=self.name, classes=lowered)
        plan.search_stats = {"dag": stats}
        plan.validate(queries)
        return plan
