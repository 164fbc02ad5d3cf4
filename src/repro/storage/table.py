"""Paged heap tables.

A :class:`HeapTable` stores fixed-width rows in append-only pages.  Rows are
addressed by a dense global *row position* (``page_no * capacity + slot``);
bitmap join indexes use these positions as bit offsets, exactly like the
paper's "position based" join indexes.

Scans and probes go through the owning :class:`~repro.storage.buffer.BufferPool`
so that sequential vs. random I/O is accounted.  The columnar access paths
(:meth:`HeapTable.scan_batches`, :meth:`HeapTable.fetch_positions`) account
page by page exactly as a page-at-a-time read would, and hand out column
batches of many pages (a *morsel* for scans, the whole probe set for
fetches); the batch kernels in :mod:`repro.core.operators` are built on
them.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, List
from typing import Optional, Sequence, Tuple

import numpy as np

from ..obs.metrics import default_registry
from .page import DEFAULT_PAGE_SIZE, Page, Row, rows_per_page

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .buffer import BufferPool

_table_ids = itertools.count(1)

#: Rows handed to the operators at a time.  Pages stay the unit of
#: *accounting* (fault checks, pool residency, I/O charges); a morsel — a
#: run of whole pages of about this many rows — is the unit of *compute*.
#: Wall time is flat above ~4k rows, so this is a constant, not a setting.
MORSEL_ROWS = 8192

#: One scan batch: ``(first_row_position, n_pages, n_rows, keys, measures)``
#: — rows ``first_row_position .. first_row_position + n_rows`` as ``n_keys``
#: int64 key columns and the float64 measure column.
Morsel = Tuple[int, int, int, List[np.ndarray], np.ndarray]


class HeapTable:
    """An append-only paged table of fixed-width tuples."""

    def __init__(
        self,
        name: str,
        columns: Sequence[str],
        page_size: int = DEFAULT_PAGE_SIZE,
    ):
        if not columns:
            raise ValueError("a table needs at least one column")
        if len(set(columns)) != len(columns):
            raise ValueError(f"duplicate column names in {columns!r}")
        self.table_id = next(_table_ids)
        self.name = name
        self.columns = tuple(columns)
        self.page_size = page_size
        self.capacity = rows_per_page(len(columns), page_size)
        self._pages: List[Page] = []
        self._n_rows = 0

    # -- geometry ------------------------------------------------------------

    @property
    def n_rows(self) -> int:
        """Number of rows."""
        return self._n_rows

    @property
    def n_pages(self) -> int:
        """Accounted size in pages."""
        return len(self._pages)

    @property
    def n_columns(self) -> int:
        """Number of columns."""
        return len(self.columns)

    def column_index(self, name: str) -> int:
        """Index of a column by name (KeyError if unknown)."""
        try:
            return self.columns.index(name)
        except ValueError:
            raise KeyError(f"table {self.name!r} has no column {name!r}") from None

    def position_to_page(self, position: int) -> Tuple[int, int]:
        """Map a global row position to ``(page_no, slot)``."""
        if not 0 <= position < self._n_rows:
            raise IndexError(
                f"row position {position} out of range for {self.name!r} "
                f"({self._n_rows} rows)"
            )
        return divmod(position, self.capacity)

    # -- writes ---------------------------------------------------------------

    def append(self, row: Row) -> int:
        """Append one row; return its global row position."""
        if len(row) != len(self.columns):
            raise ValueError(
                f"row width {len(row)} != table width {len(self.columns)} "
                f"for {self.name!r}"
            )
        if not self._pages or self._pages[-1].is_full:
            self._pages.append(Page(len(self._pages), self.capacity))
        page = self._pages[-1]
        page.append(tuple(row))
        self._n_rows += 1
        return self._n_rows - 1

    def extend(self, rows: Iterable[Row]) -> None:
        """Append each element in order."""
        for row in rows:
            self.append(row)

    # -- reads (unaccounted; operators must go through the buffer pool) ------

    def page(self, page_no: int) -> Page:
        """The page object at the given number (unaccounted)."""
        return self._pages[page_no]

    def all_rows(self) -> Iterator[Row]:
        """Iterate every row without I/O accounting (tests and loading only)."""
        for page in self._pages:
            yield from page.rows

    def row_at(self, position: int) -> Row:
        """The row at a global position (unaccounted)."""
        page_no, slot = self.position_to_page(position)
        return self._pages[page_no][slot]

    # -- accounted access ------------------------------------------------------

    def _scan_runs(
        self,
        pool: "BufferPool",
        after_page: Optional[Callable[[], None]] = None,
    ) -> Iterator[List[Page]]:
        """The one sequential scan: check ``storage.scan`` once, then read
        the table through the buffer pool a morsel's run of pages at a
        time (:meth:`~repro.storage.buffer.BufferPool.read_run` — every
        page is still fault-checked and charged individually, in order).
        """
        faults = getattr(pool, "faults", None)
        if faults is not None:
            faults.check("storage.scan", table=self.name)
        metrics = default_registry()
        metrics.counter("table.scans", "full sequential table scans").inc()
        metrics.counter(
            "table.scan_pages", "pages requested by sequential scans"
        ).inc(self.n_pages)
        run_pages = max(1, MORSEL_ROWS // self.capacity)
        for first in range(0, self.n_pages, run_pages):
            yield pool.read_run(
                self, first, min(run_pages, self.n_pages - first), after_page
            )

    def scan_pages(self, pool: "BufferPool") -> Iterator[Page]:
        """Sequentially scan all pages through the buffer pool."""
        for pages in self._scan_runs(pool):
            yield from pages

    def scan_batches(
        self,
        pool: "BufferPool",
        n_keys: int,
        after_page: Optional[Callable[[], None]] = None,
    ) -> Iterator[Morsel]:
        """Columnar sequential scan: yield one :data:`Morsel` per run of
        :data:`MORSEL_ROWS` rows (whole pages) — the pages' cached column
        arrays (``n_keys`` int64 key columns + the float64 measure column)
        concatenated in page order.

        I/O accounting, metrics, and fault checks are exactly those of
        :meth:`scan_pages`, page by page; ``after_page`` runs after each
        page is accounted, and a morsel is handed out only once all its
        pages are.  The columnar decode is free on the simulated clock (it
        models reading a column-laid-out page image) and cached per page.
        """
        capacity = self.capacity
        for pages in self._scan_runs(pool, after_page):
            first_position = pages[0].page_no * capacity
            columns = [page.columns(n_keys) for page in pages]
            keys = [
                np.concatenate([page_keys[d] for page_keys, _m in columns])
                for d in range(n_keys)
            ]
            measures = np.concatenate([m for _keys, m in columns])
            # Only a table's last page may be partial, so a morsel's rows
            # sit at consecutive row positions (bitmap slices rely on it).
            n_rows = measures.size
            assert n_rows == min(
                len(pages) * capacity, self._n_rows - first_position
            ), f"non-contiguous morsel in {self.name!r}"
            yield first_position, len(pages), n_rows, keys, measures

    def fetch_positions(
        self, pool: "BufferPool", positions: np.ndarray, n_keys: int
    ) -> Tuple[List[np.ndarray], np.ndarray]:
        """Vectorized positional fetch: gather the rows at ``positions``
        column-wise, in input order.

        Charges exactly what iterating :meth:`probe_positions` would: one
        random page read per *page change* in first-touch order (a revisit
        after an intervening page re-fetches, as there), the same
        ``table.probe_pages`` metric, and the same per-read fault checks —
        only the per-tuple Python loop is gone.
        """
        positions = np.asarray(positions, dtype=np.int64)
        if positions.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return [empty] * n_keys, np.empty(0, dtype=np.float64)
        if int(positions.min()) < 0 or int(positions.max()) >= self._n_rows:
            bad = positions[(positions < 0) | (positions >= self._n_rows)][0]
            raise IndexError(
                f"row position {int(bad)} out of range for {self.name!r} "
                f"({self._n_rows} rows)"
            )
        probe_pages = default_registry().counter(
            "table.probe_pages", "distinct pages fetched by random probes"
        )
        page_nos = positions // self.capacity
        slots = positions % self.capacity
        # Runs of equal page number, in first-touch order.
        breaks = np.flatnonzero(np.diff(page_nos)) + 1
        starts = np.concatenate((np.zeros(1, dtype=np.int64), breaks))
        stops = np.concatenate((breaks, np.asarray([positions.size])))
        key_parts: List[List[np.ndarray]] = []
        measure_parts: List[np.ndarray] = []
        for lo, hi in zip(starts.tolist(), stops.tolist()):
            page = pool.get_page(self, int(page_nos[lo]), sequential=False)
            probe_pages.inc()
            keys, measures = page.columns(n_keys)
            run = slots[lo:hi]
            key_parts.append([col[run] for col in keys])
            measure_parts.append(measures[run])
        if len(measure_parts) == 1:
            return key_parts[0], measure_parts[0]
        gathered = [
            np.concatenate([part[d] for part in key_parts])
            for d in range(n_keys)
        ]
        return gathered, np.concatenate(measure_parts)

    def probe_positions(
        self, pool: "BufferPool", positions: Iterable[int]
    ) -> Iterator[Tuple[int, Row]]:
        """Fetch rows by global position, charging one random read per
        *distinct page* in first-touch order (consecutive positions on the
        same page share the fetch, as a real probe of sorted RIDs would)."""
        probe_pages = default_registry().counter(
            "table.probe_pages", "distinct pages fetched by random probes"
        )
        current_page_no = -1
        current_page: Page | None = None
        for position in positions:
            page_no, slot = self.position_to_page(position)
            if page_no != current_page_no:
                current_page = pool.get_page(self, page_no, sequential=False)
                current_page_no = page_no
                probe_pages.inc()
            assert current_page is not None
            yield position, current_page[slot]

    def __len__(self) -> int:
        return self._n_rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HeapTable({self.name!r}, {self._n_rows} rows, "
            f"{self.n_pages} pages, cols={list(self.columns)})"
        )
