"""The optimal global plan, by dynamic programming over query subsets.

The paper's Table 2 compares each algorithm against "the optimal global
plan … found by exploring all possible query plans".  Enumerating every
query→table assignment costs ``|tables| ^ |queries|`` class sets, which
explodes past a handful of queries (``tests/helpers.py`` keeps that
enumeration as the independent oracle the exactness tests compare
against).  The same optimum decomposes over *classes*: an optimal global
plan partitions the query set, and each part is one class on its best base
table.  That gives the classic set-partition DP

    cost(S) = min over nonempty T ⊆ S:  best_class(T) + cost(S − T)

evaluated over subset bitmasks (``3^n`` subset pairs instead of ``t^n``
assignments), with each ``best_class(T)`` costed once and memoized —
``2^n·t`` class costings, so 8–12 query batches stay cheap while the plan
is still exact under the cost model's class-additivity (classes on
distinct tables share nothing, which holds for cold execution).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ...schema.query import GroupByQuery
from ...storage.catalog import TableEntry
from .base import Optimizer, build_plan_class
from .plans import GlobalPlan

#: Refuse instances whose subset lattice would be unreasonably large
#: (the DP walks ~3^n subset pairs and costs 2^n·|tables| classes).
MAX_QUERIES = 12


class OptimalOptimizer(Optimizer):
    """Exact set-partition DP: the paper's "Optimal" column, for batches
    of up to ``MAX_QUERIES`` queries."""

    name = "optimal"

    def optimize(self, queries: Sequence[GroupByQuery]) -> GlobalPlan:
        """Produce a global plan covering ``queries`` (see class docstring)."""
        queries = self._check_input(queries)
        n = len(queries)
        if n > MAX_QUERIES:
            raise ValueError(
                f"{n} queries exceed the DP budget ({MAX_QUERIES}); "
                f"use gg/bgg for batches this large"
            )
        entries = self.entries()
        full = (1 << n) - 1

        # best_class[mask] = (cost, entry) of the cheapest single class
        # covering exactly the queries in mask, or None if no table answers
        # them all.
        best_class: List[Optional[Tuple[float, TableEntry]]] = [None] * (
            full + 1
        )
        for mask in range(1, full + 1):
            subset = [queries[i] for i in range(n) if mask >> i & 1]
            best: Optional[Tuple[float, TableEntry]] = None
            for entry in entries:
                costing = self.model.plan_class(entry, subset)
                if costing is None:
                    continue
                if best is None or costing.cost_ms < best[0]:
                    best = (costing.cost_ms, entry)
            best_class[mask] = best

        INF = float("inf")
        cost: List[float] = [INF] * (full + 1)
        choice: List[int] = [0] * (full + 1)  # the class mask taken at S
        cost[0] = 0.0
        for mask in range(1, full + 1):
            # Fix the lowest set bit inside the chosen class to avoid
            # enumerating every partition n! times.
            low = mask & -mask
            sub = mask
            while sub:
                if sub & low:
                    klass = best_class[sub]
                    if klass is not None:
                        candidate = klass[0] + cost[mask ^ sub]
                        if candidate < cost[mask]:
                            cost[mask] = candidate
                            choice[mask] = sub
                sub = (sub - 1) & mask
        if cost[full] == INF:
            raise ValueError("some query cannot be answered by any table")

        plan = GlobalPlan(algorithm=self.name)
        mask = full
        while mask:
            sub = choice[mask]
            subset = [queries[i] for i in range(n) if sub >> i & 1]
            entry = best_class[sub][1]  # type: ignore[index]
            plan.classes.append(build_plan_class(self.model, entry, subset))
            mask ^= sub
        # Two parts may have landed on the same table only if splitting was
        # cheaper than one class there — which class-additivity forbids for
        # an optimal plan, but guard for cost-model ties by merging.
        self._merge_same_source(plan)
        plan.validate(queries)
        return plan

    def _merge_same_source(self, plan: GlobalPlan) -> None:
        by_source: Dict[str, int] = {}
        merged = []
        for cls in plan.classes:
            if cls.source in by_source:
                target = merged[by_source[cls.source]]
                entry = self.db.catalog.get(cls.source)
                combined = build_plan_class(
                    self.model, entry, target.queries + cls.queries
                )
                merged[by_source[cls.source]] = combined
            else:
                by_source[cls.source] = len(merged)
                merged.append(cls)
        plan.classes[:] = merged


class DPOptimalOptimizer(OptimalOptimizer):
    """Registry alias ``dp`` of ``optimal`` (the name the DP carried while
    ``optimal`` was the t^n enumeration); excluded from calibration sweeps
    to avoid double-counting one plan shape."""

    name = "dp"
    in_calibration = False
