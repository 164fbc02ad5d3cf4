"""The ground-truth evaluator: one query, one tuple-at-a-time fold.

Deliberately naive, per Gray et al.'s data-cube semantics: answer a
:class:`~repro.schema.query.GroupByQuery` by scanning rows one by one,
joining each tuple to its dimension hierarchies by per-row rollup
navigation, applying every predicate, and folding the measure into a plain
dict accumulator.  Oracle work is free: it never touches the simulated cost
clock.

This is the only fold the tests and paranoia mode hold the engine to.
:func:`evaluate_reference` folds any row iterable stored at any lattice
point (a view's rows, with the aggregate its measure holds);
:func:`reference_answer` is that fold over the raw fact table.  It shares
no code with the operator pipelines — no sharing, no indexes, no
materialized group-bys, no buffer pool: an oracle that reused engine
plumbing could inherit an engine bug.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Optional, Tuple

from ..core.operators.results import QueryResult
from ..schema.lattice import aggregate_compatible, effective_aggregate
from ..schema.query import Aggregate, GroupByQuery
from ..schema.star import StarSchema
from ..storage.catalog import Catalog, TableEntry
from ..storage.page import Row
from .errors import PlanValidationError

if TYPE_CHECKING:  # pragma: no cover
    from ..engine.database import Database


def raw_base_entry(
    catalog: Catalog, base_name: Optional[str] = None
) -> TableEntry:
    """The raw (un-aggregated) fact table the reference scans.

    With ``base_name`` given, that table is fetched and checked; otherwise
    the catalog must hold exactly one raw table.
    """
    if base_name is not None:
        entry = catalog.get(base_name)
        if not entry.is_raw:
            raise PlanValidationError(
                f"{base_name!r} is a materialized view; the reference "
                f"evaluator needs raw fact data"
            )
        return entry
    raw = catalog.raw_entries()
    if not raw:
        raise PlanValidationError(
            "no raw base table registered; nothing to evaluate against"
        )
    if len(raw) > 1:
        names = [entry.name for entry in raw]
        raise PlanValidationError(
            f"several raw tables exist ({names}); pass base_name"
        )
    return raw[0]


def evaluate_reference(
    schema: StarSchema,
    rows: Iterable[Row],
    query: GroupByQuery,
    source_levels: Tuple[int, ...] | None = None,
    source_aggregate: str | None = None,
) -> QueryResult:
    """Evaluate ``query`` over ``rows`` stored at ``source_levels``
    (default: the base/leaf levels).

    Rows hold their measure as stored: an integer number of cents (or a
    COUNT view's counts).  ``source_aggregate`` names the aggregate a view's
    measure column holds (None for raw data); the fold is adjusted exactly
    as the engine's pipelines adjust it.  Tuples passing all predicates
    contribute to exactly the one group the target group-by assigns them
    (the correctness contract behind the paper's "Filter tuples" routing).
    Groups come out in key order.
    """
    if source_levels is None:
        source_levels = schema.base_levels()
    if not query.answerable_from(source_levels):
        raise ValueError("query is not answerable from the given source levels")
    if not aggregate_compatible(query.aggregate, source_aggregate):
        raise ValueError(
            "query aggregate is incompatible with the source's measure"
        )
    fold = effective_aggregate(query.aggregate, source_aggregate)
    n_dims = schema.n_dims
    groups: Dict[Tuple[int, ...], int] = {}
    counts: Dict[Tuple[int, ...], int] = {}
    for row in rows:
        # Join the tuple to each dimension: navigate from the stored key up
        # to whatever level a predicate or the target group-by needs.
        passed = True
        for pred in query.predicates:
            d = pred.dim_index
            dim = schema.dimensions[d]
            value = dim.rollup(source_levels[d], pred.level, int(row[d]))
            if value not in pred.member_ids:
                passed = False
                break
        if not passed:
            continue
        key = []
        for d in range(n_dims):
            dim = schema.dimensions[d]
            level = query.groupby.levels[d]
            if level == dim.all_level:
                key.append(0)
            else:
                key.append(dim.rollup(source_levels[d], level, int(row[d])))
        key = tuple(key)
        measure = row[n_dims]
        counts[key] = counts.get(key, 0) + 1
        if fold in (Aggregate.SUM, Aggregate.AVG):
            groups[key] = groups.get(key, 0) + measure
        elif fold is Aggregate.COUNT:
            groups[key] = counts[key]
        elif fold is Aggregate.MIN:
            groups[key] = min(groups.get(key, measure), measure)
        elif fold is Aggregate.MAX:
            groups[key] = max(groups.get(key, measure), measure)
        else:  # pragma: no cover - Aggregate is a closed enum
            raise NotImplementedError(fold)

    def result_value(key: Tuple[int, ...]) -> float:
        """One division per group, at the end: cents / 100, a count as it
        is, an average as its sum of cents / (100 * count)."""
        if query.aggregate is Aggregate.COUNT:
            return float(groups[key])
        if query.aggregate is Aggregate.AVG:
            return groups[key] / (100 * counts[key])
        return groups[key] / 100

    return QueryResult(query, {key: result_value(key) for key in sorted(groups)})


def reference_answer(
    db: "Database", query: GroupByQuery, base_name: Optional[str] = None
) -> QueryResult:
    """Ground truth for ``query``: the fold over the raw fact table."""
    entry = raw_base_entry(db.catalog, base_name)
    query.validate(db.schema)
    return evaluate_reference(
        db.schema, entry.table.all_rows(), query, entry.levels
    )
