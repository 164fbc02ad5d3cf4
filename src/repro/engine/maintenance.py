"""Incremental maintenance of materialized group-bys and join indexes.

The paper's Section 1 motivates precomputation with the literature on
"techniques for effectively creating and maintaining materialized
group-bys".  This module supplies the maintenance half: appending a batch of
fact rows to the base table propagates, without recomputation and at a cost
proportional to the *batch*, into

* every materialized group-by whose aggregate is insert-maintainable
  (SUM/COUNT/MIN/MAX all are — deletes would break MIN/MAX, and this
  engine's OLAP workload is append-only): the batch is grouped to the
  view's levels, existing groups are found by binary search and merged in
  place, new groups are appended;
* every join index, on the base table and on the views: the new row
  positions are added to the affected members' bitmaps / RID lists.

An append is all-or-nothing: the whole batch is validated before the first
write.  Views are *not* kept sorted under maintenance: appended groups land
at the tail, so a maintained view loses the page-locality guarantee of a
freshly built one.  The catalog's ``clustered`` flag is cleared accordingly,
and the cost model stops assuming locality for it — exactly what a real
system's statistics would do.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

import numpy as np

from ..core.operators.aggregate import COMBINE, decode_groups
from ..core.operators.aggregate import fold_groups, group_codes
from ..schema.query import Aggregate
from ..schema.star import StarSchema
from ..storage.catalog import TableEntry
from ..storage.page import ColumnBatch, Row


class MaintenanceError(RuntimeError):
    """A view or index cannot be incrementally maintained."""


def _validated_columns(
    schema: StarSchema, base: TableEntry, rows: List[Row]
) -> ColumnBatch:
    """The batch column-wise, or ValueError: every row needs one integer
    member id per dimension, at the level ``base`` stores, and a finite
    measure."""
    try:
        matrix = np.asarray(rows, dtype=np.float64)
    except (TypeError, ValueError):  # ragged or non-numeric
        matrix = np.empty(0)
    width = schema.n_dims + 1
    if matrix.ndim != 2 or matrix.shape[1] != width:
        raise ValueError(f"fact rows need {width} numeric fields each")
    keys: List[np.ndarray] = []
    with np.errstate(invalid="ignore"):  # NaN keys fail the round trip
        for d, (dim, level) in enumerate(zip(schema.dimensions, base.levels)):
            column = matrix[:, d].astype(np.int64)
            bad = np.flatnonzero(
                (column != matrix[:, d])
                | (column < 0)
                | (column >= dim.n_members(level))
            )
            if bad.size:
                raise ValueError(
                    f"row {bad[0]}: {rows[bad[0]][d]!r} is not a member id "
                    f"of dimension {dim.name!r} "
                    f"(0..{dim.n_members(level) - 1})"
                )
            keys.append(column)
    measures = matrix[:, schema.n_dims]
    bad = np.flatnonzero(~np.isfinite(measures))
    if bad.size:
        raise ValueError(
            f"row {bad[0]}: measure {rows[bad[0]][-1]!r} is not finite"
        )
    return keys, measures


def _group_positions(
    schema: StarSchema, view: TableEntry
) -> Tuple[np.ndarray, np.ndarray]:
    """The view's group codes in sorted order and the row position of each.

    Kept on the entry between appends and only ever *caught up* with the
    rows added since (keys never change in place, so nothing invalidates
    it) — the stand-in for the view's primary index."""
    codes, positions = view.group_positions or (np.empty(0, np.int64),) * 2
    covered = codes.size
    if covered < view.n_rows:
        keys, _measures = view.table.read_columns(schema.n_dims, covered)
        fresh = group_codes(schema, keys, view.levels, view.levels)[0]
        order = np.argsort(fresh, kind="stable")
        at = np.searchsorted(codes, fresh[order])
        codes, positions = view.group_positions = (
            np.insert(codes, at, fresh[order]),
            np.insert(positions, at, covered + order),
        )
    return codes, positions


def _merge_into_view(
    schema: StarSchema, view: TableEntry, base: TableEntry, batch: ColumnBatch
) -> int:
    """Fold ``batch`` (rows of ``base``) to the view's levels and merge it
    into the view's table: existing groups are updated in place, new groups
    appended in key order.  Returns the number of groups appended."""
    aggregate = Aggregate(view.source_aggregate)
    codes, sizes = group_codes(schema, batch[0], base.levels, view.levels)
    delta_codes, delta = fold_groups(codes, batch[1], aggregate)
    view_codes, view_positions = _group_positions(schema, view)
    at = np.searchsorted(view_codes, delta_codes)
    found = np.zeros(delta_codes.size, dtype=bool)
    inside = at < view_codes.size
    found[inside] = view_codes[at[inside]] == delta_codes[inside]
    positions = view_positions[at[found]]
    current = view.table.read_columns(schema.n_dims)[1][positions]
    merged = COMBINE[aggregate](current, delta[found])
    view.table.update_measures(positions, merged)
    view.table.extend_columns(
        decode_groups(delta_codes[~found], sizes), delta[~found]
    )
    return int(delta_codes.size - positions.size)


def append_rows(
    db, rows: Iterable[Row], base_name: str | None = None
) -> Dict[str, int]:
    """Append fact rows to the base table and maintain every dependent view
    and index incrementally.

    Returns ``{table name: groups appended}`` (0 for updated-in-place-only
    views; the base table reports the row count).  A batch with a malformed
    row (wrong width, a key that is not a member id of its dimension, a
    non-finite measure) raises ``ValueError`` before anything is written.
    Maintenance is offline work and is not charged to the query cost clock.
    """
    schema = db.schema
    if base_name is None:
        raw = db.catalog.raw_entries()
        if not raw:
            raise MaintenanceError("the database has no raw base table")
        if len(raw) > 1:
            names = [entry.name for entry in raw]
            raise MaintenanceError(
                f"several raw tables exist ({names}); pass base_name"
            )
        base = raw[0]
        base_name = base.name
    else:
        base = db.catalog.get(base_name)
    if not base.is_raw:
        raise MaintenanceError(
            f"{base_name!r} is a materialized view, not a base table"
        )
    rows = list(rows)
    if not rows:
        return {}
    batch = _validated_columns(schema, base, rows)

    # 1. Append to the base table and extend its join indexes.
    first = base.n_rows
    base.table.extend_columns(*batch)
    _maintain_indexes(schema, base, first)

    # 2. Propagate a per-view delta into every materialized group-by.
    report: Dict[str, int] = {}
    for entry in db.catalog.entries():
        if entry.is_raw:
            continue
        first = entry.n_rows
        appended = _merge_into_view(schema, entry, base, batch)
        report[entry.name] = appended
        if appended:
            # Appended groups break the sorted invariant.
            entry.clustered = False
            _maintain_indexes(schema, entry, first)

    report[base_name] = len(rows)
    # Answers have changed: bump the mutation epoch (drops the result
    # cache), also when this function is called directly.
    db.notify_mutation()
    return report


def _maintain_indexes(schema: StarSchema, entry: TableEntry, first: int) -> None:
    """Extend every join index of ``entry`` over rows ``first ..``."""
    keys, _measures = entry.table.read_columns(schema.n_dims, first)
    for (dim_index, level), index in entry.indexes.items():
        rollup = schema.dimensions[dim_index].rollup_map(
            entry.levels[dim_index], level
        )
        index.extend(rollup[keys[dim_index]])
