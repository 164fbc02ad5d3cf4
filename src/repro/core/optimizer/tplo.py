"""Two Phase Local Optimal (TPLO), Section 4.

Phase one independently picks, for each component query, the best
materialized group-by and join method — the "optimal local plan".  Phase two
merges whatever common subtasks happen to exist: local plans that chose the
same base table become one class, executed with the shared operators of
Section 3.  TPLO never *creates* sharing; when the locally optimal tables
all differ (the paper's Figure 6 situation and its Test 7), nothing merges.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ...schema.query import GroupByQuery
from ...storage.catalog import TableEntry
from .base import Optimizer
from .plans import GlobalPlan, JoinMethod, LocalPlan, PlanClass


class TPLOOptimizer(Optimizer):
    """Locally optimal plans, then merge identical base tables."""

    name = "tplo"

    def optimize(self, queries: Sequence[GroupByQuery]) -> GlobalPlan:
        """Produce a global plan covering ``queries`` (see class docstring)."""
        queries = self._check_input(queries)
        # Phase one: the optimal local plan per query.
        locals_: List[Tuple[GroupByQuery, TableEntry, JoinMethod]] = []
        with self.tracer.span("optimize.tplo.local", n_queries=len(queries)):
            for query in queries:
                entry, method, _cost = self.model.best_local(query)
                locals_.append((query, entry, method))
        # Phase two: merge plans sharing a base table into classes.  Local
        # method choices are kept (phase two only shares subtasks; it does
        # not re-plan).
        with self.tracer.span("optimize.tplo.merge") as merge_span:
            by_source: Dict[
                str, Tuple[TableEntry, List[GroupByQuery], List[JoinMethod]]
            ] = {}
            for query, entry, method in locals_:
                _entry, class_queries, methods = by_source.setdefault(
                    entry.name, (entry, [], [])
                )
                class_queries.append(query)
                methods.append(method)
            plan = GlobalPlan(algorithm=self.name)
            for source, (entry, class_queries, methods) in by_source.items():
                est = self.model.class_cost_given(entry, class_queries, methods)
                plans = [
                    LocalPlan(query=query, source=source, method=method)
                    for query, method in zip(class_queries, methods)
                ]
                plan.classes.append(
                    PlanClass(source=source, plans=plans, est_cost_ms=est)
                )
            merge_span.set("n_classes", len(plan.classes))
        plan.validate(queries)
        return plan
