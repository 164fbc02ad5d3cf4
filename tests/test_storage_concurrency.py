"""Thread-safety of the storage and metrics counters.

The plan executor runs operators on worker threads; every shared
counter they touch (the IOStats cost clock, the buffer pool's frame map and
hit/miss counts, the process metrics) must be exact under interleaving.
These stress tests shrink the interpreter's thread switch interval so that
an unguarded read-modify-write (``self.x += n``) reliably loses updates —
they fail on the unlocked implementations.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.obs.metrics import Counter, Histogram, MetricsRegistry
from repro.storage.buffer import BufferPool
from repro.storage.iostats import IOStats
from repro.storage.table import HeapTable

N_THREADS = 8
N_ITERATIONS = 20_000


@pytest.fixture()
def tight_switching():
    """Force frequent thread switches so unlocked races actually fire."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


def hammer(worker, n_threads: int = N_THREADS) -> None:
    """Run ``worker(thread_index)`` on N threads and join them all."""
    threads = [
        threading.Thread(target=worker, args=(index,))
        for index in range(n_threads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)


class TestIOStatsLocking:
    def test_concurrent_charges_are_exact(self, tight_switching):
        stats = IOStats()

        def worker(_index):
            for _ in range(N_ITERATIONS):
                stats.charge_seq_read()
                stats.charge_hash_probe(2)

        hammer(worker)
        assert stats.seq_page_reads == N_THREADS * N_ITERATIONS
        assert stats.hash_probes == 2 * N_THREADS * N_ITERATIONS

    def test_concurrent_merges_are_exact(self, tight_switching):
        shared = IOStats()
        delta = IOStats()
        delta.charge_rand_read(3)
        delta.charge_tuple_copy(5)

        def worker(_index):
            for _ in range(2_000):
                shared.merge_from(delta)

        hammer(worker)
        assert shared.rand_page_reads == 3 * N_THREADS * 2_000
        assert shared.tuple_copies == 5 * N_THREADS * 2_000

    def test_merge_rejects_different_rates(self):
        shared = IOStats()
        other = IOStats(rates=shared.rates.replace(seq_page_read_ms=99.0))
        with pytest.raises(ValueError):
            shared.merge_from(other)

    def test_merge_matches_sum_of_parts(self):
        shared = IOStats()
        parts = []
        for count in (1, 4, 7):
            part = IOStats()
            part.charge_seq_read(count)
            part.charge_agg_update(count * 10)
            parts.append(part)
        for part in parts:
            shared.merge_from(part)
        assert shared.seq_page_reads == 12
        assert shared.agg_updates == 120


class TestBufferPoolLocking:
    def make_table(self, n_rows: int = 600) -> HeapTable:
        table = HeapTable("T", ["a", "m"], page_size=32)
        table.extend((i % 13, float(i)) for i in range(n_rows))
        return table

    def test_shared_pool_counts_are_exact(self, tight_switching):
        stats = IOStats()
        pool = BufferPool(stats, capacity_pages=4)
        table = self.make_table()
        n_pages = table.n_pages
        assert n_pages > 4  # evictions must happen
        rounds = 400

        def worker(index):
            for round_no in range(rounds):
                page_no = (index + round_no) % n_pages
                pool.get_page(table, page_no, sequential=True)

        hammer(worker)
        total = N_THREADS * rounds
        assert pool.hits + pool.misses == total
        # Every miss was charged to the clock, every hit recorded, and the
        # split is consistent between the pool and the cost clock.
        assert stats.seq_page_reads == pool.misses
        assert stats.buffer_hits == pool.hits
        assert len(pool) <= 4

    def test_concurrent_runs_and_page_reads_are_exact(self, tight_switching):
        """Morsel-run readers (one ``read_pages`` call per run) beside
        page-at-a-time readers on one pool smaller than a run: no lost
        count, no lost charge, no overfull pool."""
        stats = IOStats()
        pool = BufferPool(stats, capacity_pages=4)
        table = self.make_table()
        n_pages = table.n_pages
        run_pages = 7  # longer than the pool: a run evicts its own pages
        rounds = 150
        requested = [0] * N_THREADS

        def worker(index):
            for round_no in range(rounds):
                first = (index * 3 + round_no) % (n_pages - run_pages)
                if index % 2:
                    pool.get_page(table, first, sequential=True)
                    requested[index] += 1
                    continue
                pool.read_pages(
                    table, range(first, first + run_pages), sequential=True
                )
                requested[index] += run_pages

        hammer(worker)
        assert pool.hits + pool.misses == sum(requested)
        assert stats.seq_page_reads == pool.misses
        assert stats.buffer_hits == pool.hits
        assert len(pool) <= 4

    def test_flush_during_traffic_keeps_capacity_invariant(
        self, tight_switching
    ):
        stats = IOStats()
        pool = BufferPool(stats, capacity_pages=8)
        table = self.make_table()
        n_pages = table.n_pages
        stop = threading.Event()

        def reader(index):
            round_no = 0
            while not stop.is_set() and round_no < 5_000:
                pool.get_page(
                    table, (index + round_no) % n_pages, sequential=False
                )
                round_no += 1

        def flusher(_index):
            for _ in range(200):
                pool.flush()

        threads = [
            threading.Thread(target=reader, args=(i,)) for i in range(4)
        ] + [threading.Thread(target=flusher, args=(0,))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stop.set()
        assert len(pool) <= 8


class TestAppendPublishOrder:
    def test_readers_never_see_an_unfilled_row(self, tight_switching):
        """Appends fill the column arrays (reallocating as they grow) and
        only then bump ``n_rows``: a reader racing one writer sees a prefix
        of whole, filled rows — every row says ``m == a + 1``, which fresh
        zeroed memory does not — whichever arrays it caught."""
        table = HeapTable("T", ["a", "m"], page_size=32)
        total = 40_000
        torn = []

        def worker(index):
            if index == 0:  # the one writer
                for first in range(0, total, 97):
                    chunk = range(first, min(first + 97, total))
                    table.extend([(i, float(i + 1)) for i in chunk])
                return
            seen = 0
            while seen < total:
                keys, measures = table.read_columns(1)
                if measures.size < seen or not (keys[0] + 1 == measures).all():
                    torn.append((seen, measures.size))
                    return
                seen = measures.size

        hammer(worker)
        assert not torn
        assert table.n_rows == total


class TestMetricsLocking:
    def test_counter_increments_are_exact(self, tight_switching):
        counter = Counter("test.hits")

        def worker(_index):
            for _ in range(N_ITERATIONS):
                counter.inc()

        hammer(worker)
        assert counter.value == N_THREADS * N_ITERATIONS

    def test_histogram_count_is_exact(self, tight_switching):
        histogram = Histogram("test.latency")

        def worker(index):
            for i in range(5_000):
                histogram.observe(float(index * 5_000 + i))

        hammer(worker)
        assert histogram.count == N_THREADS * 5_000
        assert histogram.min == 0.0
        assert histogram.max == N_THREADS * 5_000 - 1.0

    def test_registry_get_or_create_race_yields_one_instance(
        self, tight_switching
    ):
        registry = MetricsRegistry()
        seen = []
        barrier = threading.Barrier(N_THREADS)

        def worker(_index):
            barrier.wait()
            seen.append(registry.counter("race.counter"))

        hammer(worker)
        assert len(seen) == N_THREADS
        assert all(metric is seen[0] for metric in seen)
