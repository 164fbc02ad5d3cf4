"""Unit tests for heap tables, including I/O accounting via the pool."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.buffer import BufferPool
from repro.storage.iostats import IOStats
from repro.storage.table import HeapTable

from helpers import probe_positions


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


    def test_integer_tables_round_trip_as_ints(self):
        """A dimension table holds only integers: its rows come back as
        ints until a float is stored in the last column."""
        table = HeapTable("dim", ("leaf", "mid", "top"), page_size=80)
        table.extend([(0, 0, 0), (1, 0, 0)])
        table.append((2, 1, 0))
        assert [type(v) for v in table.row_at(2)] == [int, int, int]
        assert list(table.all_rows()) == [(0, 0, 0), (1, 0, 0), (2, 1, 0)]
        table.append((3, 1, 0.5))
        assert table.row_at(3) == (3, 1, 0.5)
        assert [type(v) for v in table.row_at(0)] == [int, int, float]

    def test_non_numeric_rows_rejected(self):
        table = make_table(0)
        with pytest.raises(ValueError):
            table.extend([(1, 2, "x")])
        with pytest.raises(ValueError):
            table.extend([(1, 2, 3.0), (1, 2)])
        assert table.n_rows == 0

    def test_bulk_load_retains_columns_only(self):
        """Wall-clock-free guard: a bulk load keeps 5 columns x 8 bytes per
        row and nothing per row or per page beside them (tuple storage kept
        110+ bytes per row: an 80-byte tuple, a 24-byte float, a list slot)."""
        n_rows = 50_000
        table = HeapTable("facts", ("A", "B", "C", "D", "m"), page_size=512)
        tracemalloc.start()
        try:
            before, _peak = tracemalloc.get_traced_memory()
            table.extend(  # a generator: the table is the rows' only owner
                (i % 108, i % 99, i % 90, i % 54, i * 0.25)
                for i in range(n_rows)
            )
            list(table.scan_pages(BufferPool(IOStats(), capacity_pages=4096)))
            after, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.n_rows == n_rows and table.n_pages == 2000
        assert (after - before) / n_rows <= 64


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
        keys, _measures = table.fetch_positions(
            pool, np.asarray([0, 1, 2, 6, 13]), n_keys=2
        )
        assert keys[0].tolist() == [0, 1, 2, 6, 13]
        assert stats.rand_page_reads == 3
        assert stats.seq_page_reads == 0

    def test_probe_returns_correct_rows(self):
        table = make_table(100)
        pool = BufferPool(IOStats(), capacity_pages=64)
        keys, measures = table.fetch_positions(
            pool, np.asarray([5, 50, 99]), n_keys=2
        )
        assert keys[0].tolist() == [5, 50, 99]
        assert keys[1].tolist() == [5 % 7, 50 % 7, 99 % 7]
        assert measures.tolist() == [5.0, 50.0, 99.0]


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
            for _pos, row in probe_positions(
                table, BufferPool(stats_p, capacity_pages=64), positions.tolist()
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


# -- the storage model, property-tested against a list of tuples -------------

ROW = st.tuples(
    st.integers(0, 50),
    st.integers(0, 6),
    st.floats(-1e6, 1e6, allow_nan=False, width=64),
)
OPERATION = st.one_of(
    st.tuples(st.just("append"), ROW),
    st.tuples(st.just("extend"), st.lists(ROW, max_size=20)),
    st.tuples(
        st.just("update"),
        st.lists(
            st.tuples(st.integers(0, 10**6), st.floats(-1e6, 1e6, width=64)),
            max_size=5,
        ),
    ),
)


class TestStorageModel:
    @given(st.lists(OPERATION, max_size=25), st.data())
    @settings(max_examples=60, deadline=None)
    def test_interleaved_writes_match_a_list_of_tuples(self, operations, data):
        table = HeapTable("t", ("a", "b", "m"), page_size=80)  # 6 rows/page
        model = []
        held = []  # (morsel, the rows it showed when taken)
        for kind, argument in operations:
            if kind == "append":
                assert table.append(argument) == len(model)
                model.append(argument)
            elif kind == "extend":
                table.extend(argument)
                model.extend(argument)
            elif model:
                updates = {p % len(model): v for p, v in argument}
                table.update_measures(
                    np.fromiter(updates, dtype=np.int64, count=len(updates)),
                    np.fromiter(updates.values(), dtype=np.float64),
                )
                for position, value in updates.items():
                    model[position] = model[position][:2] + (value,)
                held.clear()  # in-place updates do show through old morsels
            pool = BufferPool(IOStats(), capacity_pages=3)
            for morsel in table.scan_batches(pool, n_keys=2):
                held.append((morsel, morsel_rows(morsel)))
        # Rows, length and page geometry.
        assert len(table) == table.n_rows == len(model)
        assert list(table.all_rows()) == model
        assert table.n_pages == -(-len(model) // table.capacity)
        for position in range(0, len(model), 5):
            assert table.row_at(position) == model[position]
            page_no, slot = table.position_to_page(position)
            assert table.page(page_no)[slot] == model[position]
        pages = [table.page(no) for no in range(table.n_pages)]
        assert [row for page in pages for row in page] == model
        assert all(page.is_full for page in pages[:-1])
        # A scan tiles the table with contiguous whole-page morsels that
        # nobody can write through; a morsel taken before later appends
        # still reads the rows it had.
        stats = IOStats()
        position = 0
        for morsel in table.scan_batches(BufferPool(stats, 3), n_keys=2):
            first, n_pages, n_rows, keys, measures = morsel
            assert first == position and first % table.capacity == 0
            assert n_rows == measures.size == min(
                n_pages * table.capacity, len(model) - first
            )
            assert morsel_rows(morsel) == model[first : first + n_rows]
            for column in (*keys, measures):
                with pytest.raises(ValueError):
                    column[:1] = 0
            position += n_rows
        assert position == len(model)
        assert stats.seq_page_reads == table.n_pages
        for morsel, rows in held:
            assert morsel_rows(morsel) == rows
        # fetch_positions == probe_positions: values and I/O charges.
        if model:
            positions = data.draw(
                st.lists(st.integers(0, len(model) - 1), max_size=12)
            )
            fetched, probed = IOStats(), IOStats()
            keys, measures = table.fetch_positions(
                BufferPool(fetched, 2), np.asarray(positions, np.int64), 2
            )
            rows = list(probe_positions(table, BufferPool(probed, 2), positions))
            assert rows == [(p, model[p]) for p in positions]
            assert morsel_rows((0, 0, 0, keys, measures)) == [
                model[p] for p in positions
            ]
            assert fetched.as_dict() == probed.as_dict()


def morsel_rows(morsel):
    _first, _n_pages, _n_rows, keys, measures = morsel
    return list(zip(*(column.tolist() for column in (*keys, measures))))
