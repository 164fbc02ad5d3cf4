"""Incremental maintenance of materialized group-bys and join indexes.

The paper's Section 1 motivates precomputation with the literature on
"techniques for effectively creating and maintaining materialized
group-bys".  This module supplies the maintenance half: appending a batch of
fact rows to the base table propagates, without recomputation, into

* every materialized group-by whose aggregate is insert-maintainable
  (SUM/COUNT/MIN/MAX all are — deletes would break MIN/MAX, and this
  engine's OLAP workload is append-only),
* every join index on the base table (new row positions are added to the
  affected members' bitmaps / RID lists).

Views are *not* kept sorted under maintenance: appended groups land at the
tail, so a maintained view loses the page-locality guarantee of a freshly
built one.  The catalog's ``clustered`` flag is cleared accordingly, and the
cost model stops assuming locality for it — exactly what a real system's
statistics would do.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from ..schema.query import Aggregate
from ..storage.catalog import TableEntry
from ..storage.page import Row


class MaintenanceError(RuntimeError):
    """A view or index cannot be incrementally maintained."""


def _fold_delta(
    aggregate: Aggregate,
    groups: Dict[Tuple[int, ...], float],
    key: Tuple[int, ...],
    value: float,
) -> None:
    if aggregate is Aggregate.SUM:
        groups[key] = groups.get(key, 0.0) + value
    elif aggregate is Aggregate.COUNT:
        groups[key] = groups.get(key, 0.0) + 1.0
    elif aggregate is Aggregate.MIN:
        groups[key] = min(groups.get(key, value), value)
    elif aggregate is Aggregate.MAX:
        groups[key] = max(groups.get(key, value), value)
    else:  # pragma: no cover - Aggregate is a closed enum
        raise NotImplementedError(aggregate)


def _merge_into_view(
    view: TableEntry,
    delta: Dict[Tuple[int, ...], float],
    aggregate: Aggregate,
) -> int:
    """Merge a per-group delta into a view's heap table in place.

    Existing groups are updated in their slots; new groups are appended.
    Returns the number of groups appended.
    """
    n_dims = len(view.levels)
    # Locate existing groups.  A real system would use the view's primary
    # index; here we build a transient key → (page, slot) map.
    positions: Dict[Tuple[int, ...], Tuple[int, int]] = {}
    for page in view.table._pages:  # noqa: SLF001 - engine-internal access
        for slot, row in enumerate(page.rows):
            positions[tuple(int(v) for v in row[:n_dims])] = (
                page.page_no,
                slot,
            )
    appended = 0
    for key, value in sorted(delta.items()):
        found = positions.get(key)
        if found is None:
            view.table.append(key + (value,))
            appended += 1
            continue
        page_no, slot = found
        row = view.table._pages[page_no].rows[slot]  # noqa: SLF001
        current = float(row[n_dims])
        if aggregate in (Aggregate.SUM, Aggregate.COUNT):
            merged = current + value
        elif aggregate is Aggregate.MIN:
            merged = min(current, value)
        else:
            merged = max(current, value)
        # Page.update also drops the page's cached columnar view.
        view.table._pages[page_no].update(slot, key + (merged,))  # noqa: SLF001
    return appended


def append_rows(
    db, rows: Iterable[Row], base_name: str | None = None
) -> Dict[str, int]:
    """Append fact rows to the base table and maintain every dependent view
    and index incrementally.

    Returns ``{table name: groups appended}`` (0 for updated-in-place-only
    views; the base table reports the row count).  Maintenance is offline
    work and is not charged to the query cost clock.
    """
    schema = db.schema
    if base_name is None:
        raw = [entry for entry in db.catalog.entries() if entry.is_raw]
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
    rows = [tuple(row) for row in rows]
    report: Dict[str, int] = {}
    if not rows:
        return report
    n_dims = schema.n_dims
    for row in rows:
        if len(row) != n_dims + 1:
            raise ValueError(
                f"fact rows need {n_dims + 1} fields, got {len(row)}"
            )
    first_position = base.table.n_rows

    # 1. Append to the base table, remembering each new row's position.
    for row in rows:
        base.table.append(row)

    # 2. Maintain the base table's join indexes.
    for (dim_index, level), index in base.indexes.items():
        _maintain_index(schema, index, dim_index, level, rows, first_position)

    # 3. Propagate a per-view delta into every materialized group-by.
    for entry in db.catalog.entries():
        if entry.is_raw:
            continue
        aggregate = Aggregate(entry.source_aggregate)
        delta: Dict[Tuple[int, ...], float] = {}
        rollups = [
            dim.rollup_map(0, level) if level not in (0, dim.all_level) else None
            for dim, level in zip(schema.dimensions, entry.levels)
        ]
        for row in rows:
            key: List[int] = []
            for d, (dim, level) in enumerate(
                zip(schema.dimensions, entry.levels)
            ):
                if level == dim.all_level:
                    key.append(0)
                elif level == 0:
                    key.append(int(row[d]))
                else:
                    key.append(int(rollups[d][int(row[d])]))
            _fold_delta(aggregate, delta, tuple(key), float(row[n_dims]))
        appended = _merge_into_view(entry, delta, aggregate)
        report[entry.name] = appended
        if appended:
            # Appended groups break the sorted invariant.
            entry.clustered = False
        if entry.indexes:
            _rebuild_view_indexes(db, entry)

    report[base_name] = len(rows)
    # Answers have changed: bump the mutation epoch (drops the result
    # cache), also when this function is called directly.
    db.notify_mutation()
    return report


def _maintain_index(schema, index, dim_index: int, level: int, rows, first_position: int) -> None:
    """Extend a base-table join index with the new rows."""
    from ..index.bitmap import Bitmap
    from ..index.bitmap_index import BitmapJoinIndex
    from ..index.btree import PositionListJoinIndex

    dim = schema.dimensions[dim_index]
    rollup = dim.rollup_map(0, level) if level else None
    new_total = first_position + len(rows)
    if isinstance(index, BitmapJoinIndex):
        # Grow every existing bitmap, then set the new bits.
        for member, bitmap in list(index._bitmaps.items()):  # noqa: SLF001
            grown = Bitmap.zeros(new_total)
            grown.words[: bitmap.n_words] = bitmap.words
            index._bitmaps[member] = grown  # noqa: SLF001
        index.n_rows = new_total
        for offset, row in enumerate(rows):
            key = int(row[dim_index])
            member = int(rollup[key]) if rollup is not None else key
            bitmap = index._bitmaps.get(member)  # noqa: SLF001
            if bitmap is None:
                bitmap = Bitmap.zeros(new_total)
                index._bitmaps[member] = bitmap  # noqa: SLF001
            bitmap.set(first_position + offset)
    elif isinstance(index, PositionListJoinIndex):
        additions: Dict[int, List[int]] = {}
        for offset, row in enumerate(rows):
            key = int(row[dim_index])
            member = int(rollup[key]) if rollup is not None else key
            additions.setdefault(member, []).append(first_position + offset)
        for member, positions in additions.items():
            existing = index._rid_lists.get(member)  # noqa: SLF001
            new = np.asarray(positions, dtype=np.int64)
            if existing is None:
                index._rid_lists[member] = new  # noqa: SLF001
            else:
                index._rid_lists[member] = np.concatenate(  # noqa: SLF001
                    [existing, new]
                )
        index.n_rows = new_total
    else:  # pragma: no cover - the two kinds above are the catalog's
        raise MaintenanceError(f"cannot maintain index type {type(index)!r}")


def _rebuild_view_indexes(db, entry: TableEntry) -> None:
    """Views gain and reorder rows under maintenance; their indexes are
    rebuilt from scratch (cheap: views are small)."""
    from ..index.bitmap_index import BitmapJoinIndex
    from ..index.btree import PositionListJoinIndex

    schema = db.schema
    rebuilt = {}
    for (dim_index, level), old in entry.indexes.items():
        dim = schema.dimensions[dim_index]
        stored = entry.levels[dim_index]
        builder = (
            BitmapJoinIndex
            if isinstance(old, BitmapJoinIndex)
            else PositionListJoinIndex
        )
        rebuilt[(dim_index, level)] = builder.build(
            entry.table,
            entry.name,
            dim_index,
            level,
            column_index=dim_index,
            key_to_member=dim.rollup_map(stored, level),
            n_members=dim.n_members(level),
        )
    entry.indexes.clear()
    entry.indexes.update(rebuilt)
