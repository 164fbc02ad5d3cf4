"""The no-sharing baseline.

"A data source can always evaluate the queries one after another without
regard for the relationships between them" (Section 1).  This optimizer does
exactly that: each query gets its locally optimal plan and runs in its own
single-member class, so the executor shares nothing — the paper's dotted
"queries running separately" bars.
"""

from __future__ import annotations

from typing import Sequence

from ...schema.query import GroupByQuery
from .base import Optimizer, build_plan_class
from .plans import GlobalPlan


class NaiveOptimizer(Optimizer):
    """One isolated class per query; local optimization only."""

    name = "naive"
    #: Deliberately-unmerged baseline: excluded from calibration sweeps.
    in_calibration = False

    def optimize(self, queries: Sequence[GroupByQuery]) -> GlobalPlan:
        """Produce a global plan covering ``queries`` (see class docstring)."""
        queries = self._check_input(queries)
        plan = GlobalPlan(algorithm=self.name)
        for query in queries:
            entry, _method, _cost = self.model.best_local(query)
            plan.classes.append(build_plan_class(self.model, entry, [query]))
        return plan
