"""The ground-truth evaluator: one query, one tuple-at-a-time scan.

Deliberately naive, per Gray et al.'s data-cube semantics: answer a
:class:`~repro.schema.query.GroupByQuery` by scanning the *raw fact table*
row by row, joining each tuple to its dimension hierarchies by per-row
rollup navigation, applying every predicate, and folding the measure into a
plain dict accumulator.  No sharing, no indexes, no materialized group-bys,
no buffer pool — nothing the engine under test relies on.  Oracle work is
free: it never touches the simulated cost clock.

This intentionally shares no code with
:func:`repro.engine.reference.evaluate_reference` (which evaluates over an
arbitrary row iterable for operator-level unit tests); an oracle that
reused engine plumbing could inherit an engine bug.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

from ..core.operators.results import QueryResult
from ..schema.query import Aggregate, GroupByQuery
from ..storage.catalog import Catalog, TableEntry
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


def reference_answer(
    db: "Database", query: GroupByQuery, base_name: Optional[str] = None
) -> QueryResult:
    """Ground truth for ``query``: a naive scan of the raw fact table.

    Every tuple is joined to each dimension by rollup navigation; tuples
    passing all predicates contribute to exactly the one group the target
    group-by assigns them (the correctness contract behind the paper's
    "Filter tuples" routing).
    """
    schema = db.schema
    query.validate(schema)
    entry = raw_base_entry(db.catalog, base_name)
    source_levels = entry.levels
    n_dims = schema.n_dims
    sums: Dict[Tuple[int, ...], float] = {}
    counts: Dict[Tuple[int, ...], int] = {}
    mins: Dict[Tuple[int, ...], float] = {}
    maxs: Dict[Tuple[int, ...], float] = {}
    for row in entry.table.all_rows():
        # Join the tuple to each dimension: navigate from the stored key up
        # to whatever level a predicate or the target group-by needs.
        keep = True
        for pred in query.predicates:
            d = pred.dim_index
            member = schema.dimensions[d].rollup(
                source_levels[d], pred.level, int(row[d])
            )
            if member not in pred.member_ids:
                keep = False
                break
        if not keep:
            continue
        group = []
        for d in range(n_dims):
            dim = schema.dimensions[d]
            target = query.groupby.levels[d]
            if target == dim.all_level:
                group.append(0)
            else:
                group.append(dim.rollup(source_levels[d], target, int(row[d])))
        key = tuple(group)
        measure = float(row[n_dims])
        sums[key] = sums.get(key, 0.0) + measure
        counts[key] = counts.get(key, 0) + 1
        mins[key] = min(mins.get(key, measure), measure)
        maxs[key] = max(maxs.get(key, measure), measure)
    aggregate = query.aggregate
    if aggregate is Aggregate.SUM:
        groups = sums
    elif aggregate is Aggregate.COUNT:
        groups = {key: float(n) for key, n in counts.items()}
    elif aggregate is Aggregate.MIN:
        groups = mins
    elif aggregate is Aggregate.MAX:
        groups = maxs
    elif aggregate is Aggregate.AVG:
        groups = {key: total / counts[key] for key, total in sums.items()}
    else:  # pragma: no cover - Aggregate is a closed enum
        raise NotImplementedError(aggregate)
    return QueryResult(query=query, groups=groups)
