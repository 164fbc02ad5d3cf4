"""repro.dag — AND-OR plan-DAG multi-query optimization.

The paper's TPLO/ETPLG/GG algorithms share work at *class* granularity:
queries reading the same materialized group-by share its scan and its
dimension hash tables.  What they cannot express is a **common
sub-aggregate**: computing ``A'B'C'D`` once and *deriving* every coarser
result from those few group rows instead of re-processing the scan per
query.

This package adds that layer, following Roy et al.'s AND-OR DAG
formulation ("Efficient and Extensible Algorithms for Multi Query
Optimization", SIGMOD 2000):

* :mod:`repro.dag.nodes` — the AND-OR DAG over the group-by lattice.
  OR-nodes are equivalence classes of (aggregate, group-by,
  predicate-class) results, structurally hashed so identical
  sub-aggregates across classes unify into one node; AND-nodes are
  operator applications (scan-join from a catalog entry, derive from a
  finer materialized intermediate).
* :mod:`repro.dag.search` — greedy materialization: starting from GG's
  classes, repeatedly pick the shared intermediate whose materialization
  most reduces total plan cost under the existing
  :class:`~repro.core.optimizer.cost.CostModel`, with memoized
  incremental re-costing and an iteration budget.
* :mod:`repro.dag.optimizer` — :class:`DagOptimizer`, registered as
  algorithm ``"dag"``: lowers the chosen DAG back into the engine's
  :class:`~repro.core.optimizer.plans.GlobalPlan` form — each class a
  :class:`~repro.core.optimizer.plans.PlanClass` carrying its
  :class:`~repro.core.optimizer.plans.DeriveStep` list (executed by
  :class:`~repro.core.operators.star_join.StarJoin` over its scan) — so the
  executor, paranoia checker, actuals ledger, and serve batching all work
  unchanged.

A dag plan carries the search's typed record
(:class:`~repro.dag.search.DagSearch`, DAG included) in
``plan.search_stats.dag``; :func:`repro.core.explain.explain_plan`
renders it (AND/OR nodes, unified sub-expressions, chosen
materializations) for ``repro run --explain --algorithm dag``.
"""

from .nodes import AndNode, OrNode, PlanDag, build_dag, node_key
from .optimizer import DagOptimizer
from .search import DagSearch, greedy_search

__all__ = [
    "AndNode",
    "DagOptimizer",
    "DagSearch",
    "OrNode",
    "PlanDag",
    "build_dag",
    "greedy_search",
    "node_key",
]
