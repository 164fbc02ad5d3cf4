"""Workload logging and self-tuning view recommendation.

Closes the loop between execution and precomputation: a :class:`QueryLog`
attached to a database (:func:`attach_log`) is fed by ``Database.execute``
with every query it runs; :func:`recommend_views` feeds the
observed workload into the greedy view-selection algorithm and reports
which group-bys would have helped most; ``apply`` materializes them.

This is the operational form of the paper's premise that precomputed
group-bys drive OLAP performance — instead of guessing the materialization
set up front, derive it from what clients actually ask.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..schema.query import GroupBy, GroupByQuery
from .view_selection import (
    ViewSelection,
    greedy_select_views,
    materialize_selection,
)


@dataclass
class LoggedQuery:
    """One executed query, reduced to what the advisor needs."""

    required_levels: Tuple[int, ...]
    groupby_levels: Tuple[int, ...]
    aggregate: str
    sim_ms: float


@dataclass
class QueryLog:
    """An append-only record of executed queries."""

    entries: List[LoggedQuery] = field(default_factory=list)

    def record(self, query: GroupByQuery, sim_ms: float = 0.0) -> None:
        """Append one entry."""
        self.entries.append(
            LoggedQuery(
                required_levels=query.required_levels(),
                groupby_levels=query.groupby.levels,
                aggregate=query.aggregate.value,
                sim_ms=sim_ms,
            )
        )

    def record_execution(self, report) -> None:
        """Append every query one execution ran, each class's simulated
        cost attributed evenly across its queries."""
        for execution in report.class_executions:
            queries = execution.plan_class.queries
            share = execution.sim_ms / max(1, len(queries))
            for query in queries:
                self.record(query, sim_ms=share)

    def __len__(self) -> int:
        return len(self.entries)

    def hot_requirements(self, top: int = 10) -> List[Tuple[Tuple[int, ...], int]]:
        """The most frequent required-level points, hottest first."""
        counts = Counter(entry.required_levels for entry in self.entries)
        return counts.most_common(top)

    def as_workload(self) -> List[GroupByQuery]:
        """Reconstruct a representative workload (SUM-only skeletons carrying
        the logged data requirements) for the view-selection objective."""
        workload: List[GroupByQuery] = []
        for entry in self.entries:
            workload.append(
                GroupByQuery(
                    groupby=GroupBy(entry.required_levels),
                    label="logged",
                )
            )
        return workload


def attach_log(db) -> QueryLog:
    """Give ``db`` a :class:`QueryLog` (``db.query_log``):
    :meth:`Database.execute <repro.engine.database.Database.execute>`
    records every query it executes from then on, whichever front door
    the plan came through."""
    db.query_log = QueryLog()
    return db.query_log


@dataclass
class Recommendation:
    """The advisor's output."""

    selection: ViewSelection
    already_materialized: List[str]
    estimated_saving_rows: float

    def describe(self, schema) -> str:
        """Human-readable one-line/short rendering for display."""
        lines = [
            f"advisor: {len(self.selection.views)} view(s) recommended, "
            f"~{self.estimated_saving_rows:.0f} rows of reading saved"
        ]
        for step in self.selection.steps:
            lines.append(
                f"  + {step.view.name(schema):12s} "
                f"(~{step.estimated_rows} rows, benefit {step.benefit:.0f})"
            )
        if self.already_materialized:
            lines.append(
                f"  already materialized: "
                f"{', '.join(self.already_materialized)}"
            )
        return "\n".join(lines)


def recommend_views(
    db, log: Optional[QueryLog] = None, budget: int = 3
) -> Recommendation:
    """Recommend up to ``budget`` additional group-bys to materialize,
    driven by the logged workload (``db.query_log`` by default)."""
    if log is None:
        log = db.query_log
    if log is None or len(log) == 0:
        raise ValueError(
            "no logged workload; call attach_log(db) and run queries first"
        )
    n_base = max(entry.n_rows for entry in db.catalog.entries())
    workload = log.as_workload()
    existing = {
        GroupBy(entry.levels): entry.name for entry in db.catalog.entries()
    }
    selection = greedy_select_views(
        db.schema, n_base, n_views=budget + len(existing), workload=workload
    )
    already: List[str] = []
    kept = ViewSelection()
    for view, step in zip(selection.views, selection.steps):
        if view in existing:
            already.append(existing[view])
            continue
        if len(kept.views) >= budget:
            break
        kept.views.append(view)
        kept.steps.append(step)
        kept.total_benefit += step.benefit
    return Recommendation(
        selection=kept,
        already_materialized=already,
        estimated_saving_rows=kept.total_benefit,
    )


def apply_recommendation(db, recommendation: Recommendation) -> List[str]:
    """Materialize the recommended views; returns the new table names."""
    return materialize_selection(db, recommendation.selection)
