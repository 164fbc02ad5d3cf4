"""Greedy materialized-view selection (Harinarayan/Rajaraman/Ullman style).

The paper assumes a set of precomputed group-bys exists ("Virtually all
database systems support OLAP queries by precomputing group bys", Section 4,
citing [GH95, HRU96, CR96]) but does not say how to choose them.  This
module supplies that substrate: the classic greedy algorithm that repeatedly
materializes the group-by with the highest *benefit per selection step*,
where the benefit of a view is the total row-count saving it yields over the
lattice points it can serve.

The linear cost model is HRU's: answering a group-by ``w`` costs the row
count of the smallest materialized ancestor-or-self of ``w``.  Sizes come
from :func:`repro.schema.lattice.estimate_groupby_rows` (Cardenas over the
level-domain), so selection needs no data scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from ..schema.lattice import enumerate_lattice, estimate_groupby_rows
from ..schema.query import GroupBy
from ..schema.star import StarSchema


@dataclass
class SelectionStep:
    """One greedy iteration: the chosen view and its marginal benefit."""

    view: GroupBy
    benefit: float
    estimated_rows: int


@dataclass
class ViewSelection:
    """The outcome of a greedy run."""

    views: List[GroupBy] = field(default_factory=list)
    steps: List[SelectionStep] = field(default_factory=list)
    total_benefit: float = 0.0

    def names(self, schema: StarSchema) -> List[str]:
        """The display names, in order."""
        return [view.name(schema) for view in self.views]


def greedy_select_views(
    schema: StarSchema,
    n_base_rows: int,
    n_views: int,
) -> ViewSelection:
    """Select up to ``n_views`` group-bys to materialize (beyond the base
    table, which is always available).

    Greedy invariant: each step picks the unselected view maximizing the
    total decrease in estimated answering cost over every lattice point
    (HRU's uniform weights); stops early when no view helps.
    """
    if n_views < 0:
        raise ValueError("n_views cannot be negative")
    base = GroupBy(schema.base_levels())
    sizes: Dict[GroupBy, int] = {
        point: estimate_groupby_rows(schema, point.levels, n_base_rows)
        for point in enumerate_lattice(schema)
    }
    sizes[base] = n_base_rows
    # cost_of[point]: rows of the cheapest selected view serving it.
    cost_of: Dict[GroupBy, float] = dict.fromkeys(sizes, float(n_base_rows))
    candidates = [p for p in cost_of if p != base]
    selection = ViewSelection()
    for _step in range(n_views):
        best_view: Optional[GroupBy] = None
        best_benefit = 0.0
        for view in candidates:
            view_rows = sizes[view]
            benefit = 0.0
            for point, cost in cost_of.items():
                if point.derivable_from(view) and cost > view_rows:
                    benefit += cost - view_rows
            if benefit > best_benefit or (
                best_view is not None
                and benefit == best_benefit
                and benefit > 0
                and view < best_view
            ):
                best_benefit = benefit
                best_view = view
        if best_view is None or best_benefit <= 0:
            break
        candidates.remove(best_view)
        selection.views.append(best_view)
        selection.steps.append(
            SelectionStep(
                view=best_view,
                benefit=best_benefit,
                estimated_rows=sizes[best_view],
            )
        )
        selection.total_benefit += best_benefit
        view_rows = sizes[best_view]
        for point in cost_of:
            if point.derivable_from(best_view) and cost_of[point] > view_rows:
                cost_of[point] = float(view_rows)
    return selection


def workload_cost(
    schema: StarSchema,
    n_base_rows: int,
    selected: Iterable[GroupBy],
) -> float:
    """Estimated total answering cost (rows read) of every lattice point
    given a set of materialized views — HRU's objective function, usable to
    compare selections."""
    sizes = {
        view: estimate_groupby_rows(schema, view.levels, n_base_rows)
        for view in selected
    }
    total = 0.0
    for point in enumerate_lattice(schema):
        best = float(n_base_rows)
        for view, rows in sizes.items():
            if point.derivable_from(view) and rows < best:
                best = float(rows)
        total += best
    return total


def materialize_selection(
    db, selection: "ViewSelection | Iterable[GroupBy]"
) -> List[str]:
    """Materialize every selected view (a :class:`ViewSelection` or plain
    group-bys) that ``db`` does not hold yet; returns the new table names.

    Views are created finest-first so later (coarser) ones derive from the
    smallest table that can feed them — base, existing view or earlier
    target (:func:`~repro.engine.materialize.pick_materialization_source`)
    — instead of re-scanning the base table.
    """
    views = selection.views if isinstance(selection, ViewSelection) else selection
    names: List[str] = []
    ordered = sorted(views, key=lambda v: (v.level_sum(), v.levels))
    for view in ordered:
        name = view.name(db.schema)
        if name in db.catalog:
            continue
        db.materialize(view.levels, name=name)
        names.append(name)
    return names
