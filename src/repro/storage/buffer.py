"""LRU buffer pool with sequential/random I/O accounting.

The pool caches ``(table_id, page_no)`` frames.  Callers declare the access
pattern of each read: a *sequential* miss is charged at the cheap streaming
rate, a *random* miss at the expensive seek rate, and a hit costs no I/O.
This mirrors the paper's testbed, where both the Paradise buffer pool and the
Unix file-system cache were flushed before each run so that every test starts
cold (:meth:`BufferPool.flush` reproduces that).

A read is accounted a run of *distinct* pages at a time, in closed form:
for distinct pages, LRU is a question of rank (a resident page hits iff
fewer than ``capacity`` distinct pages were touched after it), so a whole
morsel or probe set costs a few array operations, not a loop per page.
"""

from __future__ import annotations

import bisect
import threading
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..obs.metrics import default_registry
from .iostats import IOStats, read_counts
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

    The frames are arrays.  Every table read through the pool owns a range
    of *addresses* (``base + page_no``), and ``_slots[address]`` is the
    page's position in the touch log, 0 when it is not resident.  The log
    (``_log`` addresses, ``_live`` flags) holds the frames in touch order
    between ``_head`` and ``_tail``: a touch kills the page's old entry and
    appends a new one, an eviction kills the oldest live entries, and the
    log is compacted when it fills.

    All frame accesses hold an internal lock: a pool reached from several
    threads must neither corrupt its LRU ordering nor lose hit/miss counts
    (the plan executor gives each cold class a private pool, but nothing
    stops callers sharing one).
    """

    def __init__(self, stats: IOStats, capacity_pages: int = DEFAULT_POOL_PAGES):
        if capacity_pages <= 0:
            raise ValueError("buffer pool needs at least one page")
        self.stats = stats
        self.capacity_pages = capacity_pages
        #: Armed :class:`repro.faults.FaultPlan`, or None. Checked before a
        #: read is charged, so an injected page fault costs no simulated I/O.
        self.faults = None
        self._lock = threading.RLock()
        self._reset()
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

    def _reset(self) -> None:
        """No frames, no address ranges (log position 0 is never used)."""
        self._ranges: Dict[int, Tuple[int, int]] = {}  # table id -> base, size
        self._slots = np.zeros(0, dtype=np.int32)
        self._log = np.zeros(1, dtype=np.int32)
        self._live = np.zeros(1, dtype=bool)
        self._head = self._tail = 1
        self._n_frames = 0

    def __len__(self) -> int:
        return self._n_frames

    @property
    def hit_rate(self) -> float:
        """Hits / (hits + misses); 0.0 before any access."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def _frames(self) -> List[FrameKey]:
        """The resident ``(table_id, page_no)`` frames, least recent first."""
        with self._lock:
            span = slice(self._head, self._tail)
            addresses = self._log[span][self._live[span]].tolist()
            owners = sorted(
                (base, table_id) for table_id, (base, _size) in self._ranges.items()
            )
            bases = [base for base, _table_id in owners]
            frames = []
            for address in addresses:
                base, table_id = owners[bisect.bisect_right(bases, address) - 1]
                frames.append((table_id, address - base))
            return frames

    def read_pages(
        self,
        table: "HeapTable",
        page_nos: Iterable[int],
        *,
        sequential: bool,
        after_page: Optional[Callable[[], None]] = None,
    ) -> None:
        """Account a read of each page of ``page_nos`` (a range, a list or
        an int64 array), in order — the only code that does.  Per page:
        the armed ``storage.page_read`` fault check, the bounds check, then
        a hit (LRU touch) or a miss (evict, admit; charged at the
        sequential or the random rate), then ``after_page`` (a scan's
        ``operator.pipeline`` fault check).

        The pages are accounted a maximal run of distinct in-range pages at
        a time (a revisit starts a new run, so it still counts as a hit);
        with a fault plan armed or a hook given, one page at a time, through
        the same closed form.  One lock acquisition covers the call and the
        counts are flushed once at the end, so whatever raises mid-list — a
        fault, a page out of range, the hook — leaves exactly the pages
        before it charged and resident, and the page it raised on uncounted.
        """
        faults, name, n_pages = self.faults, table.name, table.n_pages
        if isinstance(page_nos, range):
            pages = np.arange(page_nos.start, page_nos.stop, page_nos.step)
        else:
            pages = np.asarray(page_nos, dtype=np.int64)
        n_good = len(pages)
        if n_good and (pages.min() < 0 or pages.max() >= n_pages):
            n_good = int(np.argmax((pages < 0) | (pages >= n_pages)))
        if faults is not None or after_page is not None:
            runs = [(i, i + 1) for i in range(n_good)]
        elif isinstance(page_nos, range):
            runs = [(0, n_good)]
        else:
            runs = _distinct_runs(pages[:n_good])
        hits = misses = evictions = 0
        with self._lock:
            base = self._base(table)
            try:
                for first, stop in runs:
                    if faults is not None:
                        faults.check(
                            "storage.page_read",
                            table=name,
                            page_no=int(pages[first]),
                            sequential=sequential,
                        )
                    n_hits, n_misses, n_evictions = self._touch(
                        base + pages[first:stop]
                    )
                    hits += n_hits
                    misses += n_misses
                    evictions += n_evictions
                    if after_page is not None:
                        after_page()
                if n_good < len(pages):
                    page_no = int(pages[n_good])
                    if faults is not None:
                        faults.check(
                            "storage.page_read",
                            table=name,
                            page_no=page_no,
                            sequential=sequential,
                        )
                    raise IndexError(
                        f"page {page_no} out of range for {name!r} "
                        f"({n_pages} pages)"
                    )
            finally:
                self.hits += hits
                self.misses += misses
                self._hits_metric.inc(hits)
                self._misses_metric.inc(misses)
                self._evictions_metric.inc(evictions)
                self.stats.charge(
                    read_counts(misses, sequential), buffer_hits=hits
                )

    def _touch(self, addresses: np.ndarray) -> Tuple[int, int, int]:
        """Touch a run of distinct resident-or-not pages, in order; return
        ``(hits, misses, evictions)``.

        Pages not resident at the start miss.  A page resident at the start
        still hits unless eviction reached it first: evictions take the
        oldest untouched frames, and a hit moves its frame behind them, so
        a page of rank ``r`` among the frames (0 = least recent) survives
        to its touch iff ``r``, less the earlier hits ranked below it, is at
        least the evictions so far, ``frames + misses so far - capacity``.
        Afterwards the frames are the untouched ones, then the run in touch
        order — the most recent ``capacity`` of them.
        """
        capacity, n_frames = self.capacity_pages, self._n_frames
        n_pages = len(addresses)
        positions = self._slots[addresses]
        n_old = n_hits = int(np.count_nonzero(positions))
        if n_old:
            old = np.flatnonzero(positions)
            old_positions = positions[old]
            if n_frames + n_pages - n_old > capacity:
                n_hits = self._hits_by_rank(old, old_positions)
            self._live[old_positions] = False  # a touched frame leaves its place
        n_misses = n_pages - n_hits
        untouched = n_frames - n_old
        self._n_frames = min(capacity, n_frames + n_misses)
        drop = untouched + n_pages - self._n_frames  # oldest first
        if drop > untouched:
            self._evict(untouched)
            self._slots[addresses[: drop - untouched]] = 0
            addresses = addresses[drop - untouched :]
        else:
            self._evict(drop)
        self._append(addresses)
        return n_hits, n_misses, max(0, n_frames + n_misses - capacity)

    def _hits_by_rank(self, old: np.ndarray, old_positions: np.ndarray) -> int:
        """How many of the run's resident pages (at run indices ``old``,
        log positions ``old_positions``) hit, by rank: one step per page."""
        head, capacity, n_frames = self._head, self.capacity_pages, self._n_frames
        live_through = np.cumsum(self._live[head : int(old_positions.max()) + 1])
        ranks = live_through[old_positions - head] - 1  # 0: least recent
        hit_ranks: List[int] = []  # ascending
        for index, rank in zip(old.tolist(), ranks.tolist()):
            evicted = n_frames + index - len(hit_ranks) - capacity
            if rank - bisect.bisect_left(hit_ranks, rank) >= evicted:
                bisect.insort(hit_ranks, rank)
        return len(hit_ranks)

    def _evict(self, n: int) -> None:
        """Drop the ``n`` oldest live frames (there are at least ``n``)."""
        live, head, window = self._live, self._head, n
        while n:
            found = head + np.flatnonzero(live[head : head + window])[:n]
            live[found] = False
            self._slots[self._log[found]] = 0
            n -= len(found)
            head = int(found[-1]) + 1 if not n else head + window
            window *= 2
        self._head = head

    def _append(self, addresses: np.ndarray) -> None:
        """Make ``addresses`` the most recent frames, in order."""
        n = len(addresses)
        if self._tail + n > len(self._log):
            self._compact(n)
        tail = self._tail
        self._log[tail : tail + n] = addresses
        self._live[tail : tail + n] = True
        self._slots[addresses] = np.arange(tail, tail + n)
        self._tail = tail + n

    def _compact(self, room: int) -> None:
        """Move the live frames to the front of a log with ``room`` free
        entries after them (and as many again, so compaction is rare)."""
        span = slice(self._head, self._tail)
        kept = self._log[span][self._live[span]]
        n = len(kept)
        size = max(len(self._log), 2 * (n + room) + 1)
        self._log = np.zeros(size, dtype=np.int32)
        self._live = np.zeros(size, dtype=bool)
        self._log[1 : n + 1] = kept
        self._live[1 : n + 1] = True
        self._slots[kept] = np.arange(1, n + 1)
        self._head, self._tail = 1, n + 1

    def _base(self, table: "HeapTable") -> int:
        """The address of ``table``'s page 0, with room for all its pages.

        A table grown past its range moves to a fresh one at the end of the
        address space, twice its size, taking its frames along."""
        known = self._ranges.get(table.table_id)
        n_pages = table.n_pages
        if known is not None and n_pages <= known[1]:
            return known[0]
        base, size = len(self._slots), n_pages if known is None else 2 * n_pages
        slots = np.zeros(base + size, dtype=np.int32)
        slots[:base] = self._slots
        if known is not None:
            old_base, old_size = known
            moved = slots[old_base : old_base + old_size]
            slots[base : base + old_size] = moved
            self._log[moved[moved > 0]] += base - old_base
            moved[:] = 0
        self._slots = slots
        self._ranges[table.table_id] = (base, size)
        return base

    def get_page(self, table: "HeapTable", page_no: int, *, sequential: bool) -> Page:
        """Fetch one page through the pool, charging simulated I/O on a miss."""
        self.read_pages(table, (page_no,), sequential=sequential)
        return Page(table, page_no)

    def flush(self) -> None:
        """Drop every frame — the paper's 'flush both buffer pools' step."""
        with self._lock:
            self._reset()

    def resident(self, table: "HeapTable", page_no: int) -> bool:
        """Whether a page is currently cached (no charge, no LRU touch)."""
        with self._lock:
            known = self._ranges.get(table.table_id)
            return (
                known is not None
                and 0 <= page_no < known[1]
                and bool(self._slots[known[0] + page_no])
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BufferPool({len(self)}/{self.capacity_pages} pages, "
            f"hit_rate={self.hit_rate:.2f})"
        )


def _distinct_runs(pages: np.ndarray) -> List[Tuple[int, int]]:
    """``(first, stop)`` of each maximal run of distinct ``pages``: a page
    seen earlier in the current run starts the next one."""
    n = len(pages)
    order = np.argsort(pages, kind="stable")
    repeats = np.flatnonzero(pages[order[1:]] == pages[order[:-1]])
    previous = np.full(n, -1)  # the page's last earlier occurrence
    previous[order[repeats + 1]] = order[repeats]
    stops, first = [], 0
    for index in np.flatnonzero(previous >= 0).tolist():
        if previous[index] >= first:
            stops.append(index)
            first = index
    return list(zip([0] + stops, stops + [n])) if n else []
