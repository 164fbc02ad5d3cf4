"""Computing materialized group-bys (precomputed aggregates).

OLAP systems speed dimensional queries by precomputing group-bys (the paper's
Section 1 cites the cubing / view-selection literature).  This module
computes a target group-by from the finest available source — materialization
is an offline precomputation step, so it does not charge the query cost
clock.  Output rows are sorted by dimension key order, which matches how a
cube build would cluster its output and gives index probes the page locality
the paper's Test 2 relies on.  The group-by itself — pack, fold, decode —
is :mod:`repro.core.operators.aggregate`'s, the same one queries run.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..core.operators.aggregate import decode_groups, fold_groups, group_codes
from ..schema.lattice import aggregate_compatible, effective_aggregate
from ..schema.query import Aggregate
from ..schema.star import StarSchema
from ..storage.catalog import TableEntry
from ..storage.page import ColumnBatch
from ..storage.table import HeapTable


def compute_groupby(
    schema: StarSchema,
    source: TableEntry,
    target_levels: Sequence[int],
    aggregate: Aggregate = Aggregate.SUM,
) -> ColumnBatch:
    """Aggregate ``source`` to ``target_levels``.

    The target must be derivable: every target level must be
    coarser-or-equal to the source's stored level on that dimension, and
    ``aggregate`` must re-aggregate over the source's measure (any
    aggregate over raw base data; only the same aggregate over a view,
    with COUNT views re-aggregating by summing their counts).
    Returns the groups column-wise (key columns, values), sorted by key.
    """
    target_levels = schema.check_levels(target_levels)
    if aggregate is Aggregate.AVG:
        raise ValueError(
            "AVG is not re-aggregable; materialize SUM and COUNT views "
            "instead (AVG queries always read a raw or derived pair)"
        )
    if not aggregate_compatible(aggregate, source.source_aggregate):
        raise ValueError(
            f"cannot build a {aggregate.value.upper()} group-by from "
            f"{source.name!r}, whose measure holds "
            f"{source.source_aggregate!r} rollups"
        )
    fold = effective_aggregate(aggregate, source.source_aggregate)
    for dim, src_level, dst_level in zip(
        schema.dimensions, source.levels, target_levels
    ):
        if dst_level < src_level:
            raise ValueError(
                f"cannot derive level {dst_level} of {dim.name!r} from a "
                f"source stored at level {src_level}"
            )
    keys, measures = source.table.read_columns(schema.n_dims)
    codes, sizes = group_codes(schema, keys, source.levels, target_levels)
    uniq, folded = fold_groups(codes, measures, fold)
    return decode_groups(uniq, sizes), folded


def pick_materialization_source(
    schema: StarSchema,
    entries: Sequence[TableEntry],
    target_levels: Sequence[int],
    aggregate: Aggregate = Aggregate.SUM,
) -> TableEntry:
    """Choose the cheapest (fewest-rows) existing table able to derive the
    target group-by with the given aggregate."""
    target_levels = tuple(target_levels)
    usable: List[TableEntry] = []
    for entry in entries:
        if all(s <= t for s, t in zip(entry.levels, target_levels)) and (
            aggregate_compatible(aggregate, entry.source_aggregate)
        ):
            usable.append(entry)
    if not usable:
        raise ValueError(
            f"no registered table can derive a {aggregate.value.upper()} "
            f"group-by at levels {target_levels}"
        )
    return min(usable, key=lambda e: (e.n_rows, e.name))


def build_groupby_table(
    schema: StarSchema,
    source: TableEntry,
    target_levels: Sequence[int],
    name: str,
    page_size: int,
    measure_column: Optional[str] = None,
    aggregate: Aggregate = Aggregate.SUM,
) -> HeapTable:
    """Materialize a group-by into a new (sorted) heap table."""
    columns = [dim.name for dim in schema.dimensions]
    columns.append(measure_column or schema.measure)
    table = HeapTable(name, columns, page_size=page_size)
    table.extend_columns(
        *compute_groupby(schema, source, target_levels, aggregate)
    )
    return table
