"""Paged heap tables: columns are the storage, pages the accounting.

A :class:`HeapTable` owns one contiguous array per column — ``int64`` for
every column but the last, ``float64`` for the last (the measure) — grown
by amortised doubling; appends fill the arrays and only then bump the row
count, so a concurrent reader never sees an unfilled row.  Rows are
addressed by a dense global *row position*; page ``p`` is the window
``p * capacity .. (p + 1) * capacity`` over the arrays
(:class:`~repro.storage.page.Page`), and bitmap join indexes use the
positions as bit offsets, exactly like the paper's "position based" join
indexes.  Row tuples are a view, built on demand for :meth:`all_rows`,
:meth:`row_at`, :attr:`Page.rows <repro.storage.page.Page.rows>` and the
reference evaluators.

Scans and probes go through the owning :class:`~repro.storage.buffer.BufferPool`
so that sequential vs. random I/O is accounted.  The columnar access paths
(:meth:`HeapTable.scan_batches`, :meth:`HeapTable.fetch_positions`) account
page by page exactly as a page-at-a-time read would, and hand out column
batches of many pages (a *morsel* for scans — a zero-copy read-only slice —
the whole probe set for fetches, gathered once); the batch kernels in
:mod:`repro.core.operators` are built on them.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, List
from typing import Optional, Sequence, Tuple

import numpy as np

from ..obs.metrics import default_registry
from .page import DEFAULT_PAGE_SIZE, ColumnBatch, Page, Row, rows_per_page

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
    """An append-only paged table of fixed-width rows, stored by column."""

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
        self._n_rows = 0
        #: True while every value stored in the last column was an integer
        #: (a dimension table): row tuples then carry it as an int.
        self._int_measures = True
        dtypes = [np.int64] * (len(columns) - 1) + [np.float64]
        self._set_arrays([np.empty(0, dtype=dtype) for dtype in dtypes])

    def _set_arrays(self, arrays: List[np.ndarray]) -> None:
        """Install the column arrays (allocated beyond ``n_rows``) and the
        read-only views every reader slices, so that no operator can write
        into storage through a zero-copy batch."""
        views = [array.view() for array in arrays]
        for view in views:
            view.flags.writeable = False
        self._arrays = arrays
        self._views = views

    # -- geometry ------------------------------------------------------------

    @property
    def n_rows(self) -> int:
        """Number of rows."""
        return self._n_rows

    @property
    def n_pages(self) -> int:
        """Accounted size in pages."""
        return -(-self._n_rows // self.capacity)

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
        self.extend((row,))
        return self._n_rows - 1

    def extend(self, rows: Iterable[Row]) -> None:
        """Append each row in order."""
        rows = rows if isinstance(rows, (list, tuple)) else list(rows)
        if not rows:
            return
        matrix = np.asarray(rows)  # ragged rows are a ValueError here
        width = len(self.columns)
        if matrix.ndim != 2 or matrix.shape[1] != width:
            raise ValueError(
                f"rows of {self.name!r} need {width} columns each"
            )
        if matrix.dtype.kind not in "biuf":
            raise ValueError(f"rows of {self.name!r} must be numeric")
        self.extend_columns(
            [matrix[:, d] for d in range(width - 1)], matrix[:, width - 1]
        )

    def extend_columns(
        self, keys: Sequence[np.ndarray], measures: np.ndarray
    ) -> None:
        """Append rows given column-wise: one array per key column and the
        last column's values, all of one length."""
        measures = np.asarray(measures)
        n_new = measures.shape[0]
        if len(keys) != len(self.columns) - 1 or any(
            len(key) != n_new for key in keys
        ):
            raise ValueError(
                f"{self.name!r} needs {len(self.columns)} columns of one length"
            )
        first, stop = self._n_rows, self._n_rows + n_new
        allocated = self._arrays[-1].size
        if stop > allocated:
            # Exact for a first load, doubling after; readers of the old
            # arrays (a morsel in flight) keep them alive and intact.
            grown = [
                np.empty(max(stop, 2 * allocated), dtype=array.dtype)
                for array in self._arrays
            ]
            for fresh, array in zip(grown, self._arrays):
                fresh[:first] = array[:first]
            self._set_arrays(grown)
        for array, values in zip(self._arrays, (*keys, measures)):
            array[first:stop] = values
        self._int_measures = self._int_measures and measures.dtype.kind in "biu"
        self._n_rows = stop  # publish only once the rows are filled

    def update_measures(self, positions: np.ndarray, values: np.ndarray) -> None:
        """Overwrite the last column at ``positions`` (in-place view
        maintenance: measures are floats); keys never change in place."""
        self._arrays[-1][positions] = values
        self._int_measures = False

    # -- reads (unaccounted; operators must go through the buffer pool) ------

    def page(self, page_no: int) -> Page:
        """The window over the given page (unaccounted)."""
        if not 0 <= page_no < self.n_pages:
            raise IndexError(
                f"page {page_no} out of range for {self.name!r} "
                f"({self.n_pages} pages)"
            )
        return Page(self, page_no)

    def read_columns(
        self, n_keys: int, first: int = 0, stop: Optional[int] = None
    ) -> ColumnBatch:
        """Rows ``first .. stop`` (default: all) column-wise, unaccounted:
        ``n_keys`` int64 key columns and the column at index ``n_keys`` as
        float64 — zero-copy read-only slices of the storage arrays (offline
        readers, and the accounted paths once they have charged)."""
        return self._take(n_keys, slice(first, self._n_rows if stop is None else stop))

    def _take(self, n_keys: int, index) -> ColumnBatch:
        """Columns at ``index``: a slice (views) or positions (a gather)."""
        views = self._views
        measures = views[n_keys][index]
        if measures.dtype != np.float64:
            measures = measures.astype(np.float64)
        return [view[index] for view in views[:n_keys]], measures

    def rows_between(self, first: int, stop: int) -> List[Row]:
        """Rows ``first .. stop`` as tuples, built from the columns."""
        values = [view[first:stop] for view in self._views]
        if self._int_measures:
            values[-1] = values[-1].astype(np.int64)
        return list(zip(*(column.tolist() for column in values)))

    def all_rows(self) -> Iterator[Row]:
        """Iterate every row without I/O accounting (tests and loading only)."""
        step = 8192  # tuples built at a time (bounds the transient list)
        for first in range(0, self._n_rows, step):
            yield from self.rows_between(first, min(first + step, self._n_rows))

    def row_at(self, position: int) -> Row:
        """The row at a global position (unaccounted)."""
        self.position_to_page(position)
        return self.rows_between(position, position + 1)[0]

    # -- accounted access ------------------------------------------------------

    def _scan_runs(
        self,
        pool: "BufferPool",
        after_page: Optional[Callable[[], None]] = None,
    ) -> Iterator[range]:
        """The one sequential scan: check ``storage.scan`` once, then read
        the table through the buffer pool a morsel's run of pages at a
        time (:meth:`~repro.storage.buffer.BufferPool.read_pages` — every
        page is still fault-checked and charged individually, in order),
        yielding each run's page numbers once it is accounted.
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
            run = range(first, min(first + run_pages, self.n_pages))
            pool.read_pages(self, run, sequential=True, after_page=after_page)
            yield run

    def scan_pages(self, pool: "BufferPool") -> Iterator[Page]:
        """Sequentially scan all pages through the buffer pool."""
        for run in self._scan_runs(pool):
            for page_no in run:
                yield Page(self, page_no)

    def scan_batches(
        self,
        pool: "BufferPool",
        n_keys: int,
        after_page: Optional[Callable[[], None]] = None,
    ) -> Iterator[Morsel]:
        """Columnar sequential scan: yield one :data:`Morsel` per run of
        :data:`MORSEL_ROWS` rows (whole pages) — a zero-copy read-only
        slice of the column arrays (``n_keys`` int64 key columns + the
        float64 measure column).  Only a table's last page may be partial,
        so a morsel's rows sit at consecutive row positions (bitmap slices
        rely on it).

        I/O accounting, metrics, and fault checks are exactly those of
        :meth:`scan_pages`, page by page; ``after_page`` runs after each
        page is accounted, and a morsel is handed out only once all its
        pages are.
        """
        capacity = self.capacity
        for run in self._scan_runs(pool, after_page):
            first = run.start * capacity
            stop = min(run.stop * capacity, self._n_rows)
            keys, measures = self.read_columns(n_keys, first, stop)
            yield first, len(run), stop - first, keys, measures

    def fetch_positions(
        self, pool: "BufferPool", positions: np.ndarray, n_keys: int
    ) -> Tuple[List[np.ndarray], np.ndarray]:
        """Vectorized positional fetch: gather the rows at ``positions``
        column-wise, in input order.

        Charges what fetching row by row would: one random page read per
        *page change* in first-touch order (a revisit after an intervening
        page re-fetches), each fault-checked, accounted in one
        :meth:`~repro.storage.buffer.BufferPool.read_pages` call;
        ``table.probe_pages`` counts the pages that call accounted.
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
        page_nos = positions // self.capacity
        # One read per run of equal page number, in first-touch order.
        first_of_run = np.concatenate(([0], np.flatnonzero(np.diff(page_nos)) + 1))
        accounted = itertools.count()  # ticked by the pool after each page
        try:
            pool.read_pages(
                self,
                page_nos[first_of_run].tolist(),
                sequential=False,
                after_page=accounted.__next__,
            )
        finally:
            default_registry().counter(
                "table.probe_pages", "distinct pages fetched by random probes"
            ).inc(next(accounted))
        return self._take(n_keys, positions)

    def __len__(self) -> int:
        return self._n_rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HeapTable({self.name!r}, {self._n_rows} rows, "
            f"{self.n_pages} pages, cols={list(self.columns)})"
        )
