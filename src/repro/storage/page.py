"""Fixed-width pages: accounting windows over a table's column arrays.

A table's rows live in its column arrays (:mod:`repro.storage.table`); a
:class:`Page` is the window ``page_no * capacity .. + capacity`` over them.
The byte-level layout is only *accounted* (row width in bytes drives page
capacity and hence I/O cost), not actually serialized; this keeps the
engine pure-Python fast while preserving the paper's I/O arithmetic (e.g.
its 20-byte, five-attribute base tuples).  Pages are what the buffer pool
caches, faults and charges; they hold no data of their own, so there is
nothing to decode and nothing to invalidate: :meth:`Page.columns` slices
the table's arrays, and row tuples (:attr:`Page.rows`) are built on demand.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .table import HeapTable

Row = Tuple  # a fixed-width tuple of ints (keys) and a numeric measure

#: A columnar batch of rows: per-key ``int64`` arrays and the ``int64``
#: measure column (cents, or a view's counts), aligned by row.
ColumnBatch = Tuple[List[np.ndarray], np.ndarray]

#: Default page size, matching the common 8 KB database page.
DEFAULT_PAGE_SIZE = 8192

#: Accounted bytes per column: 4-byte integers / 4-byte floats, as in the
#: paper's 20-byte five-column base tuple.
BYTES_PER_COLUMN = 4


def rows_per_page(n_columns: int, page_size: int = DEFAULT_PAGE_SIZE) -> int:
    """How many ``n_columns``-wide rows fit in one page of ``page_size`` bytes."""
    if n_columns <= 0:
        raise ValueError("a row must have at least one column")
    width = n_columns * BYTES_PER_COLUMN
    capacity = page_size // width
    if capacity <= 0:
        raise ValueError(
            f"page of {page_size} bytes cannot hold a {width}-byte row"
        )
    return capacity


class Page:
    """Page ``page_no`` of ``table``: a read-only window that follows the
    table (the last page fills up as the table grows)."""

    __slots__ = ("table", "page_no")

    def __init__(self, table: "HeapTable", page_no: int):
        self.table = table
        self.page_no = page_no

    @property
    def capacity(self) -> int:
        """Rows a full page holds."""
        return self.table.capacity

    @property
    def first_row(self) -> int:
        """Global row position of slot 0."""
        return self.page_no * self.table.capacity

    def __len__(self) -> int:
        return max(0, min(self.table.capacity, self.table.n_rows - self.first_row))

    @property
    def is_full(self) -> bool:
        """True when the page has no free slot."""
        return len(self) >= self.table.capacity

    def columns(self, n_keys: int) -> ColumnBatch:
        """The page's rows column-wise: ``n_keys`` ``int64`` key arrays and
        the ``int64`` measure column (the column at index ``n_keys``) —
        zero-copy read-only slices of the table's arrays."""
        first = self.first_row
        return self.table.read_columns(n_keys, first, first + len(self))

    @property
    def rows(self) -> List[Row]:
        """The page's rows as tuples, built on demand."""
        first = self.first_row
        return self.table.rows_between(first, first + len(self))

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __getitem__(self, slot: int) -> Row:
        return self.rows[slot]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Page({self.table.name!r}, no={self.page_no}, "
            f"rows={len(self)}/{self.capacity})"
        )
