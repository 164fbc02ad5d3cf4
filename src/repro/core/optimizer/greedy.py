"""The greedy plan-search loop: ETPLG (Section 5), GG (Section 6) and BGG.

All three grow the global plan one query at a time, in ``GroupbyLevel``
order (finest target group-by first).  Each query either joins an existing
class or opens a new class on the best still-unused materialized group-by
(the paper's ``MSet``); it joins when the cheapest ``CostOfAdd`` over the
existing classes beats opening.  They differ in one decision — **which base
tables a class may switch to when it admits the query**:

* **ETPLG** (``beam=0``): none.  "Once a class picks its base table it
  never changes it"; the query pays only its marginal
  ``CostOfUsing(S.BaseTable())``, since the class's base-table I/O is
  already shared.
* **GG** (``beam=None``): every catalog entry.  For each class the
  algorithm finds the base table ``S'`` minimizing the aggregate cost of
  the class plus the new query; when the base switched, every member is
  re-planned on ``S'`` and classes that end up on the same base table are
  merged (``MergeClass``).  This is what lets GG trade expensive I/O for
  cheap CPU, e.g. computing a query from a *larger-than-locally-optimal*
  table whose scan is already paid for (the paper's Example 2 and its
  Tests 4–5).
* **BGG** (``beam=k``, Bounded Global Greedy): the class's current base
  table plus the ``k`` cheapest standalone sources of the incoming query.
  Section 8 observes that "in terms of the number of global plans searched,
  GG dominates ETPLG and ETPLG dominates TPLO … this comes at a price", and
  asks for "new algorithms that have both better time and space
  performance"; BGG is such a point on the trade-off curve — between the
  two on search effort while matching GG's plan quality on the paper's
  workloads (the planning-effort ablation benchmark).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

from ...schema.query import GroupByQuery, query_sort_key
from ...storage.catalog import TableEntry
from .base import Optimizer, build_plan_class
from .cost import CostModel
from .plans import GlobalPlan


@dataclass
class GrownClass:
    """A class under construction: a base table and its member queries."""

    entry: TableEntry
    queries: List[GroupByQuery] = field(default_factory=list)


class GreedyOptimizer(Optimizer):
    """Greedy class growth; ``beam`` bounds the rebase candidates (see the
    module docstring).

    ``sort_key`` overrides the processing order (default: the paper's
    "Sort G by GroupbyLevel", finest target first) — exposed for ablation
    studies of greedy-order sensitivity.
    """

    name = "greedy"

    def __init__(
        self,
        db,
        beam: Optional[int],
        sort_key=query_sort_key,
        model: Optional[CostModel] = None,
    ):
        super().__init__(db, model)
        if beam is not None and beam < 0:
            raise ValueError("beam cannot be negative")
        self.beam = beam
        self.sort_key = sort_key

    def _rebase_candidates(
        self, cls: GrownClass, query: GroupByQuery
    ) -> List[TableEntry]:
        """The base tables ``cls`` may sit on after admitting ``query`` —
        the one strategy point.  The class's current table comes first
        under a bounded beam; an unbounded one keeps registration order."""
        if self.beam is None:
            return self.entries()
        candidates = {cls.entry.name: cls.entry}
        if self.beam:
            scored: List[Tuple[float, TableEntry]] = []
            for entry in self.entries():
                result = self.model.standalone(entry, query)
                if result is not None:
                    scored.append((result[1], entry))
            scored.sort(key=lambda item: (item[0], item[1].name))
            for _cost, entry in scored[: self.beam]:
                candidates[entry.name] = entry
        return list(candidates.values())

    def _best_rebase(
        self, cls: GrownClass, query: GroupByQuery
    ) -> Optional[Tuple[TableEntry, float]]:
        """The candidate S' minimizing Cost(Class ∪ {query} | S'), as
        (S', aggregate cost); None when no candidate answers every member
        plus the new query.  Ties keep the earlier candidate."""
        best: Optional[Tuple[TableEntry, float]] = None
        for entry in self._rebase_candidates(cls, query):
            costing = self.model.plan_class(entry, cls.queries + [query])
            if costing is None:
                continue
            if best is None or costing.cost_ms < best[1]:
                best = (entry, costing.cost_ms)
        return best

    def grow(self, queries: Sequence[GroupByQuery]) -> List[GrownClass]:
        """Assign every query to a class; the classes carry no costing yet
        (``optimize`` finalizes them, the DAG optimizer searches on)."""
        classes: List[GrownClass] = []
        used: Set[str] = set()
        n_rebases = 0
        with self.tracer.span(
            f"optimize.{self.name}.grow", n_queries=len(queries)
        ) as grow_span:
            for query in sorted(queries, key=self.sort_key):
                # Best unused materialized group-by N (the MSet).
                unused = [e for e in self.entries() if e.name not in used]
                n_entry: Optional[TableEntry] = None
                n_cost = float("inf")
                if unused:
                    try:
                        n_entry, _method, n_cost = self.model.best_local(
                            query, unused
                        )
                    except ValueError:
                        n_entry = None
                # Cheapest class to add the query to: CostOfAdd is the
                # class's cost on its best allowed base with the query,
                # minus its cost today.
                best_class: Optional[GrownClass] = None
                best_rebase: Optional[Tuple[TableEntry, float]] = None
                best_cost_of_add = float("inf")
                for cls in classes:
                    rebase = self._best_rebase(cls, query)
                    if rebase is None:
                        continue
                    current = self.model.plan_class(cls.entry, cls.queries)
                    assert current is not None
                    cost_of_add = rebase[1] - current.cost_ms
                    if cost_of_add < best_cost_of_add:
                        best_cost_of_add = cost_of_add
                        best_class = cls
                        best_rebase = rebase
                if best_class is None or (
                    n_entry is not None and n_cost < best_cost_of_add
                ):
                    if n_entry is None:
                        raise ValueError(
                            f"no table can answer {query.display_name()}"
                        )
                    classes.append(GrownClass(entry=n_entry, queries=[query]))
                    used.add(n_entry.name)
                else:
                    assert best_rebase is not None
                    new_entry = best_rebase[0]
                    if new_entry.name != best_class.entry.name:
                        # SharedSet = SharedSet - S + S'.
                        used.discard(best_class.entry.name)
                        used.add(new_entry.name)
                        best_class.entry = new_entry
                        n_rebases += 1
                    best_class.queries.append(query)
                    classes = self._merge_classes(classes)
            grow_span.set("n_classes", len(classes))
            grow_span.set("n_rebases", n_rebases)
        return classes

    def optimize(self, queries: Sequence[GroupByQuery]) -> GlobalPlan:
        """Produce a global plan covering ``queries`` (see module docstring)."""
        queries = self._check_input(queries)
        classes = self.grow(queries)
        with self.tracer.span(f"optimize.{self.name}.finalize"):
            plan = GlobalPlan(algorithm=self.name)
            for cls in classes:
                plan.classes.append(
                    build_plan_class(self.model, cls.entry, cls.queries)
                )
        plan.validate(queries)
        return plan

    @staticmethod
    def _merge_classes(classes: List[GrownClass]) -> List[GrownClass]:
        """The paper's MergeClass(): classes sharing a base table become one,
        preventing repeated I/O on the same table."""
        merged: List[GrownClass] = []
        by_name = {}
        for cls in classes:
            existing = by_name.get(cls.entry.name)
            if existing is None:
                by_name[cls.entry.name] = cls
                merged.append(cls)
            else:
                existing.queries.extend(cls.queries)
        return merged


class ETPLGOptimizer(GreedyOptimizer):
    """Extended Two Phase Local Greedy: class base tables never change."""

    name = "etplg"

    def __init__(self, db, sort_key=query_sort_key):
        super().__init__(db, 0, sort_key)


class GGOptimizer(GreedyOptimizer):
    """Global Greedy: a class may rebase onto any catalog entry."""

    name = "gg"

    def __init__(self, db, sort_key=query_sort_key, model=None):
        super().__init__(db, None, sort_key, model)


class BGGOptimizer(GreedyOptimizer):
    """Bounded Global Greedy: rebase within a beam of the query's cheapest
    standalone sources."""

    name = "bgg"

    def __init__(self, db, sort_key=query_sort_key, beam: int = 2):
        super().__init__(db, beam, sort_key)
