"""Unit tests for the LRU buffer pool."""

import pytest

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
    table.extend((i, float(i)) for i in range(n_rows))
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

    def test_write_page_admits_frame(self):
        table, stats, pool = setup()
        pool.write_page(table, 0)
        assert stats.page_writes == 1
        assert pool.resident(table, 0)


class TestMultiTable:
    def test_frames_keyed_by_table(self):
        table_a, stats, pool = setup()
        table_b = HeapTable("other", ("a", "m"), page_size=32)
        table_b.extend((i, float(i)) for i in range(8))
        pool.get_page(table_a, 0, sequential=True)
        pool.get_page(table_b, 0, sequential=True)
        assert stats.seq_page_reads == 2  # same page_no, different tables
        assert pool.resident(table_a, 0) and pool.resident(table_b, 0)


class TestReadRun:
    """``read_run`` is ``get_page(sequential=True)`` over consecutive
    pages, batched: same LRU order, evictions, counts, charges, metrics."""

    @staticmethod
    def observe(capacity_pages, read):
        """Run ``read(pool, table)`` against a fresh pool under its own
        metrics registry; return everything observable afterwards."""
        previous = set_default_registry(MetricsRegistry())
        try:
            table, stats, pool = setup(n_rows=60, capacity_pages=capacity_pages)
            # A warm start: some of the run hits, and page 1 is the LRU.
            for page_no in (1, 3, 5):
                pool.get_page(table, page_no, sequential=False)
            try:
                returned = read(pool, table)
            except InjectedFault:
                returned = "fault"
            metrics = default_registry()
            return {
                "returned": returned,
                "lru_order": [page_no for _tid, page_no in pool._frames],
                "counts": (pool.hits, pool.misses, len(pool)),
                "stats": stats.as_dict(),
                "metrics": {
                    name: metrics.get(name).value
                    for name in (
                        "buffer.hits", "buffer.misses", "buffer.evictions"
                    )
                },
            }
        finally:
            set_default_registry(previous)

    @pytest.mark.parametrize("capacity_pages", [2, 4, 64])
    def test_run_equals_page_at_a_time(self, capacity_pages):
        # 15 pages: longer than the 2- and 4-page pools.
        def by_page(pool, table):
            return [
                pool.get_page(table, page_no, sequential=True).page_no
                for page_no in range(2, 15)
            ]

        def by_run(pool, table):
            return [page.page_no for page in pool.read_run(table, 2, 13)]

        assert self.observe(capacity_pages, by_run) == self.observe(
            capacity_pages, by_page
        )

    @pytest.mark.parametrize("site", ["storage.page_read", "after_page"])
    def test_aborted_run_keeps_the_charges_of_the_pages_before(self, site):
        """A fault on the 5th page (or in the hook after it) leaves exactly
        what five (or four) ``get_page`` calls would have."""

        def fault_plan():
            return FaultPlan(
                [InjectionPoint(site="storage.page_read", nth=5, name="p")]
            )

        def hook_raising_on(nth):
            calls = []

            def after_page():
                calls.append(1)
                if len(calls) == nth:
                    raise InjectedFault("hook", site="operator.pipeline", point="h")

            return after_page

        def by_page(pool, table):
            if site == "storage.page_read":
                pool.faults = fault_plan()
            after_page = hook_raising_on(5)
            for page_no in range(0, 10):
                pool.get_page(table, page_no, sequential=True)
                if site == "after_page":
                    after_page()

        def by_run(pool, table):
            if site == "storage.page_read":
                pool.faults = fault_plan()
                return pool.read_run(table, 0, 10)
            return pool.read_run(table, 0, 10, hook_raising_on(5))

        aborted = self.observe(4, by_run)
        assert aborted["returned"] == "fault"
        assert aborted == self.observe(4, by_page)
