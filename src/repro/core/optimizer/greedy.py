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
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ...schema.query import GroupByQuery, query_sort_key
from ...storage.catalog import TableEntry
from .base import Optimizer, build_plan_class
from .cost import ClassState, CostModel
from .plans import GlobalPlan


@dataclass
class GrownClass:
    """A class under construction: a base table, its member queries and
    the cost state the search carries for it."""

    entry: TableEntry
    queries: List[GroupByQuery]
    #: ``plan_class(entry, queries).cost_ms`` as it stands (the accepted
    #: rebase cost, or the opening local plan's); None from a merge until read.
    cost_ms: Optional[float]
    #: Per candidate table, the state of a prefix of ``queries``: members
    #: only ever join at the end, so ``_state`` catches it up on demand.
    states: Dict[str, ClassState] = field(default_factory=dict)


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

    def _state(self, cls: GrownClass, entry: TableEntry) -> ClassState:
        """The cost state of ``cls``'s members on ``entry``: built on the
        first trial there, then extended by whoever joined since."""
        state = cls.states.get(entry.name)
        if state is None:
            state = cls.states[entry.name] = ClassState(entry)
        for query in cls.queries[len(state.terms):]:
            self.model.extend(state, query)
        return state

    def _cost_of_add(
        self, cls: GrownClass, query: GroupByQuery
    ) -> Optional[Tuple[float, TableEntry, float]]:
        """``(CostOfAdd, S', Cost(Class ∪ {query} | S'))`` for the candidate
        S' minimizing the aggregate cost (ties keep the earlier candidate);
        None when no candidate answers every member plus the new query."""
        best: Optional[Tuple[TableEntry, float]] = None
        for entry in self._rebase_candidates(cls, query):
            costing = self.model.trial(self._state(cls, entry), query)
            if costing is not None and (best is None or costing.cost_ms < best[1]):
                best = (entry, costing.cost_ms)
        if best is None:
            return None
        # Cost(Class | S) is last iteration's winner, so it is read, not
        # re-costed — only a just-merged class is costed from its query
        # list; either way it is one class costing the search asked for.
        if cls.cost_ms is None:
            cls.cost_ms = self.model.plan_class(cls.entry, cls.queries).cost_ms
        else:
            self.model.n_plan_costings += 1
        return (best[1] - cls.cost_ms, *best)

    def grow(self, queries: Sequence[GroupByQuery]) -> List[GrownClass]:
        """Assign every query to a class; the classes carry the search's
        cost state but no plan costing yet (``optimize`` finalizes them, the
        DAG optimizer searches on)."""
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
                best_add = (float("inf"), None, None)
                for cls in classes:
                    add = self._cost_of_add(cls, query)
                    if add is not None and add[0] < best_add[0]:
                        best_class, best_add = cls, add
                if best_class is None or (
                    n_entry is not None and n_cost < best_add[0]
                ):
                    if n_entry is None:
                        raise ValueError(
                            f"no table can answer {query.display_name()}"
                        )
                    classes.append(GrownClass(n_entry, [query], n_cost))
                    used.add(n_entry.name)
                else:
                    _add, new_entry, best_class.cost_ms = best_add
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
        return plan

    @staticmethod
    def _merge_classes(classes: List[GrownClass]) -> List[GrownClass]:
        """The paper's MergeClass(): classes sharing a base table become one,
        preventing repeated I/O on the same table."""
        by_name: Dict[str, GrownClass] = {}
        for cls in classes:
            existing = by_name.setdefault(cls.entry.name, cls)
            if existing is not cls:
                existing.queries.extend(cls.queries)
                existing.cost_ms = None
        return list(by_name.values())


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
