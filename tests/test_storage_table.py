"""Unit tests for heap tables, including I/O accounting via the pool."""

import numpy as np
import pytest

from repro.storage.buffer import BufferPool
from repro.storage.iostats import IOStats
from repro.storage.table import HeapTable


def make_table(n_rows=100, page_size=80):
    # 3 columns * 4 bytes = 12 bytes/row -> 6 rows per 80-byte page.
    table = HeapTable("t", ("a", "b", "m"), page_size=page_size)
    table.extend((i, i % 7, float(i)) for i in range(n_rows))
    return table


class TestGeometry:
    def test_counts(self):
        table = make_table(100)
        assert table.n_rows == 100
        assert table.capacity == 6
        assert table.n_pages == 17  # ceil(100 / 6)

    def test_column_index(self):
        table = make_table(1)
        assert table.column_index("b") == 1
        with pytest.raises(KeyError):
            table.column_index("missing")

    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError):
            HeapTable("bad", ("a", "a"))

    def test_no_columns_rejected(self):
        with pytest.raises(ValueError):
            HeapTable("bad", ())

    def test_position_mapping(self):
        table = make_table(20)
        assert table.position_to_page(0) == (0, 0)
        assert table.position_to_page(6) == (1, 0)
        assert table.position_to_page(13) == (2, 1)
        with pytest.raises(IndexError):
            table.position_to_page(20)
        with pytest.raises(IndexError):
            table.position_to_page(-1)


class TestReadsAndWrites:
    def test_row_width_checked(self):
        table = make_table(0)
        with pytest.raises(ValueError):
            table.append((1, 2))

    def test_row_at(self):
        table = make_table(50)
        assert table.row_at(0) == (0, 0, 0.0)
        assert table.row_at(49) == (49, 0, 49.0)

    def test_all_rows_order(self):
        table = make_table(30)
        assert [r[0] for r in table.all_rows()] == list(range(30))


class TestAccountedAccess:
    def test_scan_charges_sequential(self):
        table = make_table(100)
        stats = IOStats()
        pool = BufferPool(stats, capacity_pages=4)
        rows = [row for page in table.scan_pages(pool) for row in page]
        assert len(rows) == 100
        assert stats.seq_page_reads == table.n_pages
        assert stats.rand_page_reads == 0

    def test_probe_charges_one_random_read_per_distinct_page(self):
        table = make_table(100)
        stats = IOStats()
        pool = BufferPool(stats, capacity_pages=64)
        # Positions 0,1,2 share page 0; 6 is page 1; 13 page 2.
        hits = list(table.probe_positions(pool, [0, 1, 2, 6, 13]))
        assert [p for p, _row in hits] == [0, 1, 2, 6, 13]
        assert stats.rand_page_reads == 3
        assert stats.seq_page_reads == 0

    def test_probe_returns_correct_rows(self):
        table = make_table(100)
        stats = IOStats()
        pool = BufferPool(stats, capacity_pages=64)
        for position, row in table.probe_positions(pool, [5, 50, 99]):
            assert row == (position, position % 7, float(position))

    def test_probe_revisiting_page_after_leaving_recharges(self):
        table = make_table(100)
        stats = IOStats()
        pool = BufferPool(stats, capacity_pages=1)
        # Page sequence 0 -> 1 -> 0; the pool holds one page, and the probe
        # iterator re-fetches when the page number changes.
        list(table.probe_positions(pool, [0, 6, 1]))
        assert stats.rand_page_reads == 3


class TestBatchAccess:
    def test_scan_batches_matches_scan_pages(self):
        table = make_table(100)
        stats = IOStats()
        pool = BufferPool(stats, capacity_pages=4)
        batches = list(table.scan_batches(pool, n_keys=2))
        assert stats.seq_page_reads == table.n_pages
        assert stats.rand_page_reads == 0
        rows = [
            (int(keys[0][i]), int(keys[1][i]), float(measures[i]))
            for _start, _n_pages, _n_rows, keys, measures in batches
            for i in range(measures.size)
        ]
        assert rows == list(table.all_rows())
        # Morsels tile the table: whole pages, consecutive row positions.
        assert sum(n_pages for _s, n_pages, _n, _k, _m in batches) == table.n_pages
        position = 0
        for start, _n_pages, n_rows, _keys, measures in batches:
            assert (start, n_rows) == (position, measures.size)
            position += n_rows
        assert position == table.n_rows

    def test_fetch_positions_matches_probe_positions(self):
        table = make_table(100)
        positions = np.asarray([0, 1, 2, 6, 13, 7, 0, 99], dtype=np.int64)
        stats_f = IOStats()
        keys, measures = table.fetch_positions(
            BufferPool(stats_f, capacity_pages=64), positions, n_keys=2
        )
        stats_p = IOStats()
        probed = [
            row
            for _pos, row in table.probe_positions(
                BufferPool(stats_p, capacity_pages=64), positions.tolist()
            )
        ]
        fetched = [
            (int(keys[0][i]), int(keys[1][i]), float(measures[i]))
            for i in range(positions.size)
        ]
        assert fetched == probed
        # Identical accounting: one random read per page *change*.
        assert stats_f.as_dict() == stats_p.as_dict()

    def test_fetch_positions_recharges_on_page_revisit(self):
        table = make_table(100)
        stats = IOStats()
        pool = BufferPool(stats, capacity_pages=1)
        table.fetch_positions(
            pool, np.asarray([0, 6, 1], dtype=np.int64), n_keys=2
        )
        assert stats.rand_page_reads == 3

    def test_fetch_positions_empty(self):
        table = make_table(10)
        stats = IOStats()
        keys, measures = table.fetch_positions(
            BufferPool(stats, capacity_pages=4),
            np.empty(0, dtype=np.int64),
            n_keys=2,
        )
        assert [k.size for k in keys] == [0, 0]
        assert measures.size == 0
        assert stats.rand_page_reads == 0
