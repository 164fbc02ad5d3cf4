"""Shared optimizer scaffolding."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, List, Optional, Sequence

from ...schema.query import GroupByQuery
from ...storage.catalog import TableEntry
from .cost import CostModel
from .plans import DeriveStep, GlobalPlan, LocalPlan, PlanClass

if TYPE_CHECKING:  # pragma: no cover
    from ...engine.database import Database


def build_plan_class(
    model: CostModel,
    entry: TableEntry,
    queries: Sequence[GroupByQuery],
    derives: Sequence[DeriveStep] = (),
) -> PlanClass:
    """The one lowering of a searched class into a :class:`PlanClass`: the
    model's best costing of scan members ``queries`` (and, for a ``dag``
    class, its ``derives`` — their members follow the scan members in step
    order) on ``entry``: one class costing, no per-member estimates."""
    costing = model.plan_class(entry, queries, derives)
    if costing is None:
        raise ValueError(
            f"class on {entry.name!r} cannot answer all of its queries"
        )
    members = [*queries, *(q for step in derives for q in step.queries)]
    plans = [
        LocalPlan(query=query, source=entry.name, method=method)
        for query, method in zip(members, costing.methods)
    ]
    return PlanClass(entry.name, plans, costing.cost_ms, list(derives))


class Optimizer(ABC):
    """Base class: holds the database handle and a cost model over its
    catalog (a fresh one per optimizer unless ``model`` hands one in, as
    the DAG optimizer does so its seed's planning effort adds up)."""

    name: str = "base"
    #: Whether calibration sweeps (``repro calibrate`` / ``repro bench``)
    #: include this algorithm.  Subclasses opt out when their plans would
    #: only add noise (deliberately-unmerged baselines, duplicates of
    #: another registered algorithm).
    in_calibration: bool = True

    def __init__(self, db: "Database", model: Optional[CostModel] = None):
        self.db = db
        self.model = model or CostModel.for_database(db)

    def entries(self) -> List[TableEntry]:
        """All registered entries, in registration order."""
        return self.db.catalog.entries()

    @property
    def tracer(self):
        """The owning database's tracer (no-op unless tracing is enabled)."""
        return self.db.tracer

    @abstractmethod
    def optimize(self, queries: Sequence[GroupByQuery]) -> GlobalPlan:
        """Produce a global plan covering ``queries``."""

    def _check_input(self, queries: Sequence[GroupByQuery]) -> List[GroupByQuery]:
        if not queries:
            raise ValueError("nothing to optimize: no queries given")
        qids = [q.qid for q in queries]
        if len(set(qids)) != len(qids):
            raise ValueError("duplicate query objects in the input")
        for query in queries:
            query.validate(self.db.schema)
        # Every (table, query) term of the batch, priced up front.
        self.model.terms_for(queries)
        return list(queries)
