"""Fixed-width slotted pages with a columnar mirror.

A :class:`Page` holds up to ``capacity`` fixed-width rows.  Rows are plain
Python tuples — the first columns are integer dimension keys and the last
column is the numeric measure.  The byte-level layout is only *accounted*
(row width in bytes drives page capacity and hence I/O cost), not actually
serialized; this keeps the engine pure-Python fast while preserving the
paper's I/O arithmetic (e.g. its 20-byte, five-attribute base tuples).

Each page additionally exposes a **columnar view** (:meth:`Page.columns`):
per-dimension ``int64`` key arrays plus the ``float64`` measure column,
decoded from the row tuples once and cached on the page.  The vectorized
batch kernels (see :mod:`repro.core.operators`) read this view — scans
concatenate it into morsels of many pages — so a page is decoded at most
once between writes instead of once per operator execution per scan.  The
cache is per page and invalidated per page (append / in-place update), so
a write re-decodes only the pages it touched.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

Row = Tuple  # a fixed-width tuple of ints (keys) and a numeric measure

#: A page's columnar view: per-key ``int64`` arrays and the ``float64``
#: measure column, aligned by slot.
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
    """One page of fixed-width rows.

    Pages are append-only; deletes are not needed for the read-mostly OLAP
    workloads this engine serves.
    """

    __slots__ = ("page_no", "capacity", "rows", "_columns")

    def __init__(self, page_no: int, capacity: int):
        if capacity <= 0:
            raise ValueError("page capacity must be positive")
        self.page_no = page_no
        self.capacity = capacity
        self.rows: List[Row] = []
        #: Cached columnar view, ``(n_keys, key_arrays, measures)``;
        #: dropped whenever the page grows.
        self._columns: Optional[Tuple[int, List[np.ndarray], np.ndarray]] = None

    @property
    def is_full(self) -> bool:
        """True when the page has no free slot."""
        return len(self.rows) >= self.capacity

    def append(self, row: Row) -> int:
        """Append ``row``; return its slot number within this page."""
        if self.is_full:
            raise ValueError(f"page {self.page_no} is full")
        self.rows.append(row)
        self._columns = None
        return len(self.rows) - 1

    def columns(self, n_keys: int) -> ColumnBatch:
        """The page's columnar view: ``n_keys`` ``int64`` key arrays and the
        ``float64`` measure column (the column at index ``n_keys``).

        Decoded from the row tuples on first use and cached; appends and
        in-place updates drop the cache, so the values are always exactly
        what a fresh decode of the tuples yields.
        """
        cached = self._columns
        if cached is not None and cached[0] == n_keys:
            return cached[1], cached[2]
        if not self.rows:
            empty_key = np.empty(0, dtype=np.int64)
            keys: List[np.ndarray] = [empty_key] * n_keys
            measures = np.empty(0, dtype=np.float64)
        else:
            matrix = np.asarray(self.rows, dtype=np.float64)
            keys = [matrix[:, d].astype(np.int64) for d in range(n_keys)]
            measures = matrix[:, n_keys]
        self._columns = (n_keys, keys, measures)
        return keys, measures

    def update(self, slot: int, row: Row) -> None:
        """Overwrite the row at ``slot`` (in-place view maintenance).

        Every mutation must come through :meth:`append` or here so the
        cached columnar view is dropped with it."""
        self.rows[slot] = row
        self._columns = None

    def extend(self, rows: Iterable[Row]) -> None:
        """Append each element in order."""
        for row in rows:
            self.append(row)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __getitem__(self, slot: int) -> Row:
        return self.rows[slot]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Page(no={self.page_no}, rows={len(self.rows)}/{self.capacity})"


def pack_rows(
    rows: Sequence[Row], n_columns: int, page_size: int = DEFAULT_PAGE_SIZE
) -> List[Page]:
    """Pack ``rows`` densely into a list of pages."""
    capacity = rows_per_page(n_columns, page_size)
    pages: List[Page] = []
    for start in range(0, len(rows), capacity):
        page = Page(len(pages), capacity)
        page.extend(rows[start : start + capacity])
        pages.append(page)
    return pages
