"""LRU buffer pool with sequential/random I/O accounting.

The pool caches ``(table_id, page_no)`` frames.  Callers declare the access
pattern of each read: a *sequential* miss is charged at the cheap streaming
rate, a *random* miss at the expensive seek rate, and a hit costs no I/O.
This mirrors the paper's testbed, where both the Paradise buffer pool and the
Unix file-system cache were flushed before each run so that every test starts
cold (:meth:`BufferPool.flush` reproduces that).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from ..obs.metrics import default_registry
from .iostats import IOStats
from .page import Page

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .table import HeapTable

FrameKey = Tuple[int, int]  # (table id, page number)

#: Default pool size in pages: 16 MB of 8 KB pages, as in the paper's setup.
DEFAULT_POOL_PAGES = 2048


class BufferPool:
    """A fixed-capacity LRU cache of table pages.

    Pages themselves live in their table (there is no real disk); the pool
    tracks *which* pages are resident so that hits and misses — and therefore
    simulated I/O — are faithful to an LRU-managed real pool.

    All frame-map accesses hold an internal lock: a pool reached from
    several executor threads must neither corrupt its LRU ordering nor
    lose hit/miss counts (the plan executor gives each cold
    cell a private pool, but nothing stops callers sharing one).
    """

    def __init__(self, stats: IOStats, capacity_pages: int = DEFAULT_POOL_PAGES):
        if capacity_pages <= 0:
            raise ValueError("buffer pool needs at least one page")
        self.stats = stats
        self.capacity_pages = capacity_pages
        #: Armed :class:`repro.faults.FaultPlan`, or None. Checked before a
        #: read is charged, so an injected page fault costs no simulated I/O.
        self.faults = None
        self._frames: OrderedDict[FrameKey, Page] = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        metrics = default_registry()
        self._hits_metric = metrics.counter(
            "buffer.hits", "buffer-pool page requests served from a frame"
        )
        self._misses_metric = metrics.counter(
            "buffer.misses", "buffer-pool page requests charged as I/O"
        )
        self._evictions_metric = metrics.counter(
            "buffer.evictions", "frames dropped to admit a new page"
        )

    def __len__(self) -> int:
        return len(self._frames)

    @property
    def hit_rate(self) -> float:
        """Hits / (hits + misses); 0.0 before any access."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def get_page(self, table: "HeapTable", page_no: int, *, sequential: bool) -> Page:
        """Fetch a page through the pool, charging simulated I/O on a miss."""
        if self.faults is not None:
            self.faults.check(
                "storage.page_read",
                table=table.name,
                page_no=page_no,
                sequential=sequential,
            )
        key = (table.table_id, page_no)
        with self._lock:
            frame = self._frames.get(key)
            if frame is not None:
                self._frames.move_to_end(key)
                self.hits += 1
                self._hits_metric.inc()
                self.stats.charge_buffer_hit()
                return frame
            self.misses += 1
            self._misses_metric.inc()
            page = table.page(page_no)
            if sequential:
                self.stats.charge_seq_read()
            else:
                self.stats.charge_rand_read()
            self._admit(key, page)
            return page

    def read_run(
        self,
        table: "HeapTable",
        first_page: int,
        n_pages: int,
        after_page: Optional[Callable[[], None]] = None,
    ) -> List[Page]:
        """Fetch ``n_pages`` consecutive pages, accounted exactly as that
        many ``get_page(..., sequential=True)`` calls in page order (fault
        checks, LRU touches, evictions, counts, charges) but under one lock
        acquisition, with the counts flushed once at the end.

        ``after_page`` runs after each page is accounted (a scan's
        ``operator.pipeline`` fault check, keeping the per-page check
        order).  If it or a fault check raises, the pages accounted so far
        stay charged and none is returned.
        """
        faults = self.faults
        frames = self._frames
        table_id, name = table.table_id, table.name
        pages: List[Page] = []
        hits = misses = 0
        with self._lock:
            try:
                for page_no in range(first_page, first_page + n_pages):
                    if faults is not None:
                        faults.check(
                            "storage.page_read",
                            table=name,
                            page_no=page_no,
                            sequential=True,
                        )
                    key = (table_id, page_no)
                    page = frames.get(key)
                    if page is not None:
                        frames.move_to_end(key)
                        hits += 1
                    else:
                        misses += 1
                        page = table.page(page_no)
                        self._admit(key, page)
                    pages.append(page)
                    if after_page is not None:
                        after_page()
            finally:
                self.hits += hits
                self.misses += misses
                self._hits_metric.inc(hits)
                self._misses_metric.inc(misses)
                self.stats.charge_buffer_hit(hits)
                self.stats.charge_seq_read(misses)
        return pages

    def write_page(self, table: "HeapTable", page_no: int) -> None:
        """Account a page write (used when materializing aggregates)."""
        with self._lock:
            self.stats.charge_write()
            self._admit((table.table_id, page_no), table.page(page_no))

    def flush(self) -> None:
        """Drop every frame — the paper's 'flush both buffer pools' step."""
        with self._lock:
            self._frames.clear()

    def resident(self, table: "HeapTable", page_no: int) -> bool:
        """Whether a page is currently cached (no charge, no LRU touch)."""
        with self._lock:
            return (table.table_id, page_no) in self._frames

    def _admit(self, key: FrameKey, page: Page) -> None:
        while len(self._frames) >= self.capacity_pages:
            self._frames.popitem(last=False)
            self._evictions_metric.inc()
        self._frames[key] = page

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BufferPool({len(self._frames)}/{self.capacity_pages} pages, "
            f"hit_rate={self.hit_rate:.2f})"
        )
