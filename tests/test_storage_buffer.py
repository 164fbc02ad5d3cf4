"""Unit tests for the LRU buffer pool."""

from contextlib import contextmanager

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultPlan, InjectedFault, InjectionPoint
from repro.obs.metrics import (
    MetricsRegistry,
    default_registry,
    set_default_registry,
)
from repro.storage.buffer import BufferPool
from repro.storage.iostats import IOStats
from repro.storage.table import HeapTable


def setup(n_rows=60, capacity_pages=4):
    table = HeapTable("t", ("a", "m"), page_size=32)  # 4 rows/page
    table.extend((i, i) for i in range(n_rows))
    stats = IOStats()
    pool = BufferPool(stats, capacity_pages=capacity_pages)
    return table, stats, pool


class TestHitsAndMisses:
    def test_first_read_misses_second_hits(self):
        table, stats, pool = setup()
        pool.get_page(table, 0, sequential=True)
        assert (stats.seq_page_reads, pool.misses, pool.hits) == (1, 1, 0)
        pool.get_page(table, 0, sequential=True)
        assert (stats.seq_page_reads, pool.misses, pool.hits) == (1, 1, 1)
        assert stats.buffer_hits == 1

    def test_random_miss_charged_as_random(self):
        table, stats, pool = setup()
        pool.get_page(table, 3, sequential=False)
        assert stats.rand_page_reads == 1
        assert stats.seq_page_reads == 0

    def test_hit_rate(self):
        table, stats, pool = setup()
        pool.get_page(table, 0, sequential=True)
        pool.get_page(table, 0, sequential=True)
        pool.get_page(table, 0, sequential=True)
        assert pool.hit_rate == pytest.approx(2 / 3)

    def test_hit_rate_empty_pool(self):
        _table, _stats, pool = setup()
        assert pool.hit_rate == 0.0


class TestEviction:
    def test_lru_eviction_order(self):
        table, stats, pool = setup(capacity_pages=2)
        pool.get_page(table, 0, sequential=True)
        pool.get_page(table, 1, sequential=True)
        pool.get_page(table, 0, sequential=True)  # touch 0 -> 1 becomes LRU
        pool.get_page(table, 2, sequential=True)  # evicts 1
        assert pool.resident(table, 0)
        assert not pool.resident(table, 1)
        assert pool.resident(table, 2)

    def test_capacity_never_exceeded(self):
        table, _stats, pool = setup(capacity_pages=3)
        for page_no in range(table.n_pages):
            pool.get_page(table, page_no, sequential=True)
        assert len(pool) <= 3

    def test_sequential_scan_larger_than_pool_never_hits(self):
        # Classic LRU scan behaviour: a repeated scan of a table larger than
        # the pool gets zero hits.
        table, _stats, pool = setup(n_rows=60, capacity_pages=4)
        for _ in range(2):
            for page_no in range(table.n_pages):
                pool.get_page(table, page_no, sequential=True)
        assert pool.hits == 0

    def test_zero_capacity_rejected(self):
        stats = IOStats()
        with pytest.raises(ValueError):
            BufferPool(stats, capacity_pages=0)


class TestFlush:
    def test_flush_forces_cold_reads(self):
        table, stats, pool = setup()
        pool.get_page(table, 0, sequential=True)
        pool.flush()
        assert len(pool) == 0
        pool.get_page(table, 0, sequential=True)
        assert stats.seq_page_reads == 2


class TestMultiTable:
    def test_frames_keyed_by_table(self):
        table_a, stats, pool = setup()
        table_b = HeapTable("other", ("a", "m"), page_size=32)
        table_b.extend((i, i) for i in range(8))
        pool.get_page(table_a, 0, sequential=True)
        pool.get_page(table_b, 0, sequential=True)
        assert stats.seq_page_reads == 2  # same page_no, different tables
        assert pool.resident(table_a, 0) and pool.resident(table_b, 0)


class TestOutOfRange:
    """A page past the end costs nothing, however it is asked for: the
    bounds check precedes every count, and the pages before it stay
    charged and resident."""

    def test_get_page(self, fresh_metrics):
        table, stats, pool = setup(n_rows=12)  # 3 pages
        with pytest.raises(IndexError, match="page 99 out of range"):
            pool.get_page(table, 99, sequential=True)
        assert (pool.hits, pool.misses, len(pool)) == (0, 0, 0)
        assert stats.as_dict() == IOStats().as_dict()
        assert buffer_metrics() == {
            "buffer.hits": 0, "buffer.misses": 0, "buffer.evictions": 0
        }

    def test_read_pages_keeps_the_pages_before(self, fresh_metrics):
        table, stats, pool = setup(n_rows=12)
        last = table.n_pages - 1
        with pytest.raises(IndexError, match="page 3 out of range"):
            pool.read_pages(table, range(last, last + 2), sequential=True)
        assert (pool.hits, pool.misses, len(pool)) == (0, 1, 1)
        assert pool.resident(table, last)
        assert stats.seq_page_reads == 1
        assert buffer_metrics()["buffer.misses"] == 1


@contextmanager
def fresh_registry():
    """A metrics registry of one's own for the duration."""
    previous = set_default_registry(MetricsRegistry())
    try:
        yield
    finally:
        set_default_registry(previous)


@pytest.fixture()
def fresh_metrics():
    with fresh_registry():
        yield


def buffer_metrics():
    metrics = default_registry()
    return {
        name: metrics.get(name).value
        for name in ("buffer.hits", "buffer.misses", "buffer.evictions")
    }


# -- one accounted read: the batched form held to the one-at-a-time form -----

#: Pages per table of the two tables sharing the pool under test.
TABLE_PAGES = (15, 5)


def raising_on(nth):
    """An ``after_page`` hook raising on its ``nth`` call (None: never)."""
    calls = []

    def after_page():
        calls.append(1)
        if len(calls) == nth:
            raise InjectedFault("hook", site="operator.pipeline", point="h")

    return after_page


def batched(pool, table, pages, sequential, after_page):
    pool.read_pages(table, pages, sequential=sequential, after_page=after_page)


def page_at_a_time(pool, table, pages, sequential, after_page):
    for page_no in pages:
        pool.get_page(table, page_no, sequential=sequential)
        after_page()


def observe(read, capacity_pages, calls, fault_nth=None, hook_nth=None):
    """Make ``calls`` — ``(table index, page numbers, sequential)`` each —
    through ``read`` on a fresh pool under its own metrics registry, with a
    ``storage.page_read`` fault armed at its ``fault_nth`` check and an
    ``after_page`` hook raising on its ``hook_nth`` call; return everything
    observable afterwards.  A call that raises is abandoned, the next one
    goes ahead."""
    with fresh_registry():
        tables = []
        for index, n_pages in enumerate(TABLE_PAGES):
            tables.append(HeapTable(f"t{index}", ("a", "m"), page_size=32))
            tables[-1].extend((i, i) for i in range(4 * n_pages))
        stats = IOStats()
        pool = BufferPool(stats, capacity_pages=capacity_pages)
        index_of = {table.table_id: i for i, table in enumerate(tables)}
        after_page = raising_on(hook_nth)
        if fault_nth is not None:
            pool.faults = FaultPlan(
                [InjectionPoint(site="storage.page_read", nth=fault_nth, name="p")]
            )
        raised = []
        for call_no, (index, pages, sequential) in enumerate(calls):
            try:
                read(pool, tables[index], pages, sequential, after_page)
            except InjectedFault:
                raised.append(call_no)
        return {
            "raised": raised,
            "lru_order": [(index_of[tid], no) for tid, no in pool._frames],
            "counts": (pool.hits, pool.misses),
            "stats": stats.as_dict(),
            "metrics": buffer_metrics(),
            "events": list(pool.faults.fired) if pool.faults else [],
        }


def lru_model(capacity_pages, calls, fault_nth=None, hook_nth=None):
    """What an accounted read *means*, on a plain list (least recent first):
    fault check, then hit or evict-and-admit, then the hook, page by page."""
    lru, tally = [], dict.fromkeys(("hits", "seq", "rand", "evictions"), 0)
    tally["faulted"] = []
    checks = hooks = 0
    for index, pages, sequential in calls:
        for page_no in pages:
            checks += 1
            if checks == fault_nth:
                tally["faulted"].append(
                    (("page_no", page_no), ("sequential", sequential),
                     ("table", f"t{index}"))
                )
                break
            if (index, page_no) in lru:
                lru.remove((index, page_no))
                tally["hits"] += 1
            else:
                while len(lru) >= capacity_pages:
                    del lru[0]
                    tally["evictions"] += 1
                tally["seq" if sequential else "rand"] += 1
            lru.append((index, page_no))
            hooks += 1
            if hooks == hook_nth:
                break
    return lru, tally


CALLS = st.lists(
    st.integers(0, len(TABLE_PAGES) - 1).flatmap(
        lambda index: st.tuples(
            st.just(index),
            st.lists(st.integers(0, TABLE_PAGES[index] - 1), max_size=12),
            st.booleans(),
        )
    ),
    max_size=6,
)


class TestReadPages:
    @given(
        capacity_pages=st.integers(1, 8),
        calls=CALLS,
        fault_nth=st.none() | st.integers(1, 40),
        hook_nth=st.none() | st.integers(1, 40),
    )
    @settings(max_examples=150, deadline=None)
    def test_batched_equals_page_at_a_time(
        self, capacity_pages, calls, fault_nth, hook_nth
    ):
        """Arbitrary page lists — revisits, lists longer than the pool, two
        tables in one pool, sequential and random, a fault at the n-th read,
        a hook that raises — leave the same hits, misses, LRU order,
        ``IOStats``, ``buffer.*`` counters and ``FaultEvent`` sequence
        batched as read one ``get_page`` at a time, and both are the model."""
        args = (capacity_pages, calls, fault_nth, hook_nth)
        outcome = observe(batched, *args)
        assert outcome == observe(page_at_a_time, *args)
        lru, tally = lru_model(*args)
        assert outcome["lru_order"] == lru
        assert outcome["counts"] == (tally["hits"], tally["seq"] + tally["rand"])
        assert outcome["metrics"] == {
            "buffer.hits": tally["hits"],
            "buffer.misses": tally["seq"] + tally["rand"],
            "buffer.evictions": tally["evictions"],
        }
        io = outcome["stats"]
        assert (io["seq_page_reads"], io["rand_page_reads"], io["buffer_hits"]) == (
            tally["seq"], tally["rand"], tally["hits"]
        )
        assert [event.attrs for event in outcome["events"]] == tally["faulted"]


class TestReadRun:
    """A scan's run — consecutive pages, read sequentially in one
    ``read_pages`` call — on a warm pool: the fixed cases of the property
    above that the morsel scan depends on."""

    #: A warm start: some of the run hits, and page 1 is the LRU.
    WARM = (0, [1, 3, 5], False)

    @pytest.mark.parametrize("capacity_pages", [2, 4, 64])
    def test_run_equals_page_at_a_time(self, capacity_pages):
        # 13 pages: longer than the 2- and 4-page pools.
        calls = [self.WARM, (0, range(2, 15), True)]
        assert observe(batched, capacity_pages, calls) == observe(
            page_at_a_time, capacity_pages, calls
        )

    @pytest.mark.parametrize("site", ["storage.page_read", "after_page"])
    def test_aborted_run_keeps_the_charges_of_the_pages_before(self, site):
        """A fault on the run's 5th page (or in the hook after it) leaves
        exactly what five (or four) ``get_page`` calls would have."""
        calls = [self.WARM, (0, range(0, 10), True)]
        nth = {"fault_nth": 8} if site == "storage.page_read" else {"hook_nth": 8}
        aborted = observe(batched, 4, calls, **nth)
        assert aborted["raised"] == [1]
        assert aborted == observe(page_at_a_time, 4, calls, **nth)
        lru, _tally = lru_model(4, calls, **nth)
        assert aborted["lru_order"] == lru


# -- the closed form without a hook: whole runs at a time --------------------


def as_form(pages, form):
    """``pages`` as ``read_pages`` is handed them: a list, an int64 array, or
    (when they are consecutive) a range."""
    if form == "array":
        return np.asarray(pages, dtype=np.int64)
    if form == "range" and pages == list(range(pages[0], pages[0] + len(pages))):
        return range(pages[0], pages[0] + len(pages))
    return list(pages)


def consecutive(n_pages):
    return st.integers(0, n_pages - 1).flatmap(
        lambda first: st.integers(first + 1, n_pages).map(
            lambda stop: list(range(first, stop))
        )
    )


#: Calls of up to 24 pages (3x the largest pool), revisits allowed, in the
#: three forms a read is made in.
HOOKLESS_CALLS = st.lists(
    st.integers(0, len(TABLE_PAGES) - 1).flatmap(
        lambda index: st.tuples(
            st.just(index),
            st.lists(st.integers(0, TABLE_PAGES[index] - 1), max_size=24)
            | consecutive(TABLE_PAGES[index]),
            st.booleans(),
            st.sampled_from(["list", "array", "range"]),
        )
    ),
    max_size=6,
)


def read_hookless(capacity_pages, calls, grow=None):
    """Make ``calls`` — ``(table index, pages, sequential, form)`` each —
    with no hook and no fault plan, so that a call is accounted in runs of
    distinct pages; ``grow`` rows are appended to table 0 after the first
    call.  Return everything observable, ``resident()`` of every page too."""
    with fresh_registry():
        tables = []
        for index, n_pages in enumerate(TABLE_PAGES):
            tables.append(HeapTable(f"t{index}", ("a", "m"), page_size=32))
            tables[-1].extend((i, i) for i in range(4 * n_pages))
        stats = IOStats()
        pool = BufferPool(stats, capacity_pages=capacity_pages)
        index_of = {table.table_id: i for i, table in enumerate(tables)}
        for call_no, (index, pages, sequential, form) in enumerate(calls):
            if pages:
                pages = as_form(list(pages), form)
            pool.read_pages(tables[index], pages, sequential=sequential)
            if call_no == 0 and grow:
                tables[0].extend((i, i) for i in range(grow))
        return {
            "lru_order": [(index_of[tid], no) for tid, no in pool._frames],
            "len": len(pool),
            "resident": [
                (index, no)
                for index, table in enumerate(tables)
                for no in range(table.n_pages + 2)
                if pool.resident(table, no)
            ],
            "counts": (pool.hits, pool.misses),
            "stats": stats.as_dict(),
            "metrics": buffer_metrics(),
        }


def assert_read_is_the_model(capacity_pages, calls, outcome):
    lru, tally = lru_model(
        capacity_pages, [(index, list(pages), seq) for index, pages, seq, _f in calls]
    )
    assert outcome["lru_order"] == lru
    assert outcome["len"] == len(lru)
    assert outcome["resident"] == sorted(lru)
    assert outcome["counts"] == (tally["hits"], tally["seq"] + tally["rand"])
    assert outcome["metrics"] == {
        "buffer.hits": tally["hits"],
        "buffer.misses": tally["seq"] + tally["rand"],
        "buffer.evictions": tally["evictions"],
    }
    io = outcome["stats"]
    assert (io["seq_page_reads"], io["rand_page_reads"], io["buffer_hits"]) == (
        tally["seq"], tally["rand"], tally["hits"]
    )
    # Python ints, as counted page by page (reports and dumps carry them).
    assert {type(n) for n in (*outcome["counts"], *io.values())} <= {int, float}
    assert {type(n) for n in outcome["metrics"].values()} == {int}


class TestHooklessRead:
    """With no hook and no fault plan a read is accounted a run of distinct
    pages at a time — the path every scan morsel and probe set takes — and
    is held to the same plain-list model."""

    @given(capacity_pages=st.integers(1, 8), calls=HOOKLESS_CALLS)
    @settings(max_examples=200, deadline=None)
    def test_hookless_read_equals_the_model(self, capacity_pages, calls):
        assert_read_is_the_model(
            capacity_pages, calls, read_hookless(capacity_pages, calls)
        )

    @pytest.mark.parametrize("form", ["list", "array", "range"])
    def test_a_resident_page_touched_after_eviction_started(self, form):
        """A warm, full pool; the run evicts two frames, then hits page 2
        (still resident), then misses page 3 (evicted meanwhile)."""
        calls = [(0, [0, 1, 2, 3], True, "range"), (0, [4, 5, 2, 6, 3], False, form)]
        outcome = read_hookless(4, calls)
        assert_read_is_the_model(4, calls, outcome)
        assert outcome["lru_order"] == [(0, 5), (0, 2), (0, 6), (0, 3)]
        assert outcome["counts"] == (1, 8)

    def test_a_table_grown_between_reads(self):
        """Table 0 grows past the pages its frames were addressed by (15 to
        40 pages) between two reads; the frames and their order stay."""
        calls = [
            (0, [3, 14, 1], True, "list"),
            (1, [0, 4], True, "array"),
            (0, [14, 39, 20, 1], False, "array"),
            (0, list(range(30, 40)), True, "range"),
        ]
        grown = read_hookless(8, calls, grow=4 * 25)
        lru, _tally = lru_model(
            8, [(index, pages, seq) for index, pages, seq, _f in calls]
        )
        assert grown["lru_order"] == lru
        assert grown["counts"] == (2, 17)
        assert grown["resident"] == sorted(lru)

    def test_flush_then_read(self):
        table, stats, pool = setup(capacity_pages=3)
        pool.read_pages(table, range(0, 5), sequential=True)
        pool.flush()
        assert (len(pool), pool._frames) == (0, [])
        assert not any(pool.resident(table, no) for no in range(table.n_pages))
        pool.read_pages(table, np.asarray([4, 2, 4, 1, 0]), sequential=False)
        assert pool._frames == [(table.table_id, no) for no in (4, 1, 0)]
        assert (pool.hits, pool.misses) == (1, 9)
        assert (stats.seq_page_reads, stats.rand_page_reads) == (5, 4)
