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
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Tuple

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
        self._frames: OrderedDict[FrameKey, None] = OrderedDict()
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

    def read_pages(
        self,
        table: "HeapTable",
        page_nos: Iterable[int],
        *,
        sequential: bool,
        after_page: Optional[Callable[[], None]] = None,
    ) -> None:
        """Account a read of each page of ``page_nos``, in order — the only
        code that does.  Per page: the armed ``storage.page_read`` fault
        check, the bounds check, then a hit (LRU touch) or a miss (evict,
        admit; charged at the sequential or the random rate), then
        ``after_page`` (a scan's ``operator.pipeline`` fault check).

        One lock acquisition covers the call and the counts are flushed
        once at the end, so whatever raises mid-list — a fault, a page out
        of range, the hook — leaves exactly the pages before it charged
        and resident, and the page it raised on uncounted.
        """
        faults, frames, capacity = self.faults, self._frames, self.capacity_pages
        table_id, name, n_pages = table.table_id, table.name, table.n_pages
        hits = misses = evictions = 0
        with self._lock:
            try:
                for page_no in page_nos:
                    if faults is not None:
                        faults.check(
                            "storage.page_read",
                            table=name,
                            page_no=page_no,
                            sequential=sequential,
                        )
                    if not 0 <= page_no < n_pages:
                        raise IndexError(
                            f"page {page_no} out of range for {name!r} "
                            f"({n_pages} pages)"
                        )
                    key = (table_id, page_no)
                    if key in frames:
                        frames.move_to_end(key)
                        hits += 1
                    else:
                        while len(frames) >= capacity:
                            frames.popitem(last=False)
                            evictions += 1
                        frames[key] = None
                        misses += 1
                    if after_page is not None:
                        after_page()
            finally:
                self.hits += hits
                self.misses += misses
                self._hits_metric.inc(hits)
                self._misses_metric.inc(misses)
                self._evictions_metric.inc(evictions)
                self.stats.charge_buffer_hit(hits)
                if sequential:
                    self.stats.charge_seq_read(misses)
                else:
                    self.stats.charge_rand_read(misses)

    def get_page(self, table: "HeapTable", page_no: int, *, sequential: bool) -> Page:
        """Fetch one page through the pool, charging simulated I/O on a miss."""
        self.read_pages(table, (page_no,), sequential=sequential)
        return Page(table, page_no)

    def flush(self) -> None:
        """Drop every frame — the paper's 'flush both buffer pools' step."""
        with self._lock:
            self._frames.clear()

    def resident(self, table: "HeapTable", page_no: int) -> bool:
        """Whether a page is currently cached (no charge, no LRU touch)."""
        with self._lock:
            return (table.table_id, page_no) in self._frames

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BufferPool({len(self._frames)}/{self.capacity_pages} pages, "
            f"hit_rate={self.hit_rate:.2f})"
        )
