"""System catalog: tables, their group-by metadata, statistics, and indexes.

Each stored table is either the lowest-level base table *LL* or a
materialized group-by.  Following the paper, we treat LL itself as just
another "materialized group-by" (Section 4), so the catalog records for every
table the hierarchy level it stores per dimension.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

import numpy as np

from .table import HeapTable

if TYPE_CHECKING:  # pragma: no cover
    from ..index.bitmap_index import JoinIndex


@dataclass
class TableEntry:
    """One catalog entry.

    ``levels`` gives, per dimension (in star-schema order), the hierarchy
    depth at which this table stores that dimension's key (0 = leaf,
    larger = coarser, ``n_levels`` = the ALL pseudo-level).
    """

    table: HeapTable
    levels: Tuple[int, ...]
    indexes: Dict[Tuple[int, int], "JoinIndex"] = field(default_factory=dict)
    #: True when rows are sorted by dimension-key order (materialized
    #: group-bys are); gives index probes page locality on the leading
    #: dimension, which the cost model accounts for.
    clustered: bool = False
    #: The aggregate this table's measure column holds: None for raw base
    #: data (any query aggregate can be computed from it), or the name of
    #: the aggregate a materialized group-by was built with ("sum", "count",
    #: "min", "max").  A view can only answer queries whose aggregate
    #: re-aggregates over it (SUM→SUM, MIN→MIN, MAX→MAX, COUNT→sum of
    #: counts).
    source_aggregate: str | None = None
    #: Incremental maintenance's locator for a view's groups: ``(sorted
    #: packed group codes, row position of each)`` over the rows it has
    #: covered so far (see :mod:`repro.engine.maintenance`).
    group_positions: Optional[Tuple[np.ndarray, np.ndarray]] = field(
        default=None, repr=False, compare=False
    )

    @property
    def is_raw(self) -> bool:
        """True for raw base data (any aggregate computable)."""
        return self.source_aggregate is None

    @property
    def name(self) -> str:
        """Display name."""
        return self.table.name

    @property
    def n_rows(self) -> int:
        """Number of rows."""
        return self.table.n_rows

    @property
    def n_pages(self) -> int:
        """Accounted size in pages."""
        return self.table.n_pages

    def index_for(self, dim_index: int, level: int) -> Optional["JoinIndex"]:
        """The join index on dimension ``dim_index`` at hierarchy ``level``,
        or None if not built."""
        return self.indexes.get((dim_index, level))

    def covering_index(
        self, dim_index: int, level: int
    ) -> Optional["JoinIndex"]:
        """The join index covering a predicate at ``level`` on dimension
        ``dim_index``: the one exactly there, else the coarsest at a finer
        level down to the stored one (each predicate member then stands for
        its descendants at ``index.level``); None when there is none."""
        for at in range(level, self.levels[dim_index] - 1, -1):
            index = self.index_for(dim_index, at)
            if index is not None:
                return index
        return None

    def add_index(self, dim_index: int, level: int, index: "JoinIndex") -> None:
        """Register a join index for (dimension, level); duplicates rejected."""
        key = (dim_index, level)
        if key in self.indexes:
            raise ValueError(
                f"index on dim {dim_index} level {level} already exists "
                f"for table {self.name!r}"
            )
        self.indexes[key] = index

    def has_any_index(self) -> bool:
        """Whether any join index exists on this table."""
        return bool(self.indexes)


class Catalog:
    """Name → :class:`TableEntry` registry."""

    def __init__(self) -> None:
        self._entries: Dict[str, TableEntry] = {}

    def register(
        self,
        table: HeapTable,
        levels: Tuple[int, ...],
        clustered: bool = False,
        source_aggregate: str | None = None,
    ) -> TableEntry:
        """Add a table to the catalog; names must be unique."""
        if table.name in self._entries:
            raise ValueError(f"table {table.name!r} already registered")
        entry = TableEntry(
            table=table,
            levels=tuple(levels),
            clustered=clustered,
            source_aggregate=source_aggregate,
        )
        self._entries[table.name] = entry
        return entry

    def drop(self, name: str) -> None:
        """Remove a table by name (KeyError if absent)."""
        if name not in self._entries:
            raise KeyError(f"no table named {name!r}")
        del self._entries[name]

    def get(self, name: str) -> TableEntry:
        """Look an entry up (None/raise per class contract)."""
        try:
            return self._entries[name]
        except KeyError:
            raise KeyError(
                f"no table named {name!r}; known tables: {sorted(self._entries)}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[TableEntry]:
        return iter(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    def names(self) -> List[str]:
        """The display names, in order."""
        return list(self._entries)

    def entries(self) -> List[TableEntry]:
        """All registered entries, in registration order."""
        return list(self._entries.values())

    def raw_entries(self) -> List[TableEntry]:
        """The raw (un-aggregated) fact tables, in registration order."""
        return [entry for entry in self._entries.values() if entry.is_raw]
