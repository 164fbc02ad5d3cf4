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
batching — consumes the resulting
:class:`~repro.core.optimizer.plans.GlobalPlan` unchanged.
"""

from __future__ import annotations

from typing import Sequence

from ..core.optimizer.base import Optimizer, build_plan_class
from ..core.optimizer.greedy import GGOptimizer
from ..core.optimizer.plans import GlobalPlan, SearchStats
from ..schema.query import GroupByQuery
from .nodes import build_dag
from .search import DagClass, greedy_search


class DagOptimizer(Optimizer):
    """AND-OR plan-DAG optimizer with cross-class sub-aggregate sharing."""

    name = "dag"

    def optimize(self, queries: Sequence[GroupByQuery]) -> GlobalPlan:
        queries = self._check_input(queries)
        with self.tracer.span("dag.seed", n_queries=len(queries)) as span:
            seed_classes = [
                DagClass(entry=cls.entry, scan_queries=cls.queries)
                for cls in GGOptimizer(self.db, model=self.model).grow(queries)
            ]
            span.set("n_classes", len(seed_classes))
        with self.tracer.span("dag.build"):
            dag = build_dag(self.db.schema, self.db.catalog, queries)
        with self.tracer.span("dag.search"):
            classes, stats = greedy_search(self.model, dag, seed_classes, queries)
        with self.tracer.span("dag.lower", n_classes=len(classes)):
            lowered = [
                build_plan_class(self.model, cls.entry, cls.scan_queries, cls.steps)
                for cls in classes
            ]
        return GlobalPlan(self.name, lowered, search_stats=SearchStats(dag=stats))
