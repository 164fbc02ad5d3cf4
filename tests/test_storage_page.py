"""Unit tests for fixed-width pages: accounting windows over a table's
column arrays (the data itself is covered in test_storage_table.py)."""

import numpy as np
import pytest

from repro.storage.page import (
    BYTES_PER_COLUMN,
    DEFAULT_PAGE_SIZE,
    Page,
    rows_per_page,
)
from repro.storage.table import HeapTable


def make_table(columns=("a", "m"), capacity=4):
    return HeapTable(
        "t", columns, page_size=capacity * len(columns) * BYTES_PER_COLUMN
    )


class TestRowsPerPage:
    def test_paper_geometry(self):
        # The paper's 20-byte five-attribute tuple on an 8 KB page.
        assert rows_per_page(5, 8192) == 8192 // (5 * BYTES_PER_COLUMN)

    def test_small_page(self):
        assert rows_per_page(5, 512) == 512 // 20

    def test_single_column(self):
        assert rows_per_page(1, DEFAULT_PAGE_SIZE) == DEFAULT_PAGE_SIZE // 4

    def test_zero_columns_rejected(self):
        with pytest.raises(ValueError):
            rows_per_page(0)

    def test_row_wider_than_page_rejected(self):
        with pytest.raises(ValueError):
            rows_per_page(100, 64)


class TestPage:
    def test_append_and_read(self):
        table = make_table(("a", "b", "m"), capacity=3)
        assert table.append((1, 2, 3)) == 0
        assert table.append((4, 5, 6)) == 1
        page = table.page(0)
        assert (page.page_no, page.capacity, page.first_row) == (0, 3, 0)
        assert page[0] == (1, 2, 3)
        assert page[1] == (4, 5, 6)
        assert page.rows == [(1, 2, 3), (4, 5, 6)]
        assert len(page) == 2
        assert not page.is_full

    def test_full_page_rejects_append(self):
        """A full page takes no more rows: the next append opens the next
        page, and a window taken earlier follows the table."""
        table = make_table(("m",), capacity=1)
        table.append((1,))
        page = table.page(0)
        assert page.is_full
        with pytest.raises(IndexError):
            table.page(1)
        table.append((2,))
        assert len(page) == 1 and page.rows == [(1,)]
        assert table.page(1).rows == [(2,)]

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            HeapTable("t", ("a", "m"), page_size=BYTES_PER_COLUMN)

    def test_iteration_preserves_order(self):
        table = make_table(capacity=10)
        rows = [(i, i) for i in range(7)]
        table.extend(rows)
        assert list(table.page(0)) == rows

    def test_last_page_grows_with_the_table(self):
        table = make_table(capacity=4)
        table.extend([(i, i) for i in range(5)])
        last = table.page(1)
        assert (last.first_row, len(last)) == (4, 1)
        table.extend([(5, 5), (6, 6)])
        assert len(last) == 3 and last[2] == (6, 6)


class TestColumns:
    def test_values_match_rows(self):
        table = make_table(("a", "b", "m"), capacity=8)
        table.extend([(i, i % 3, i * 15) for i in range(5)])
        keys, measures = table.page(0).columns(2)
        assert [k.dtype == np.int64 for k in keys] == [True, True]
        assert measures.dtype == np.int64
        assert keys[0].tolist() == [0, 1, 2, 3, 4]
        assert keys[1].tolist() == [0, 1, 2, 0, 1]
        assert measures.tolist() == [0, 15, 30, 45, 60]

    def test_zero_copy_readonly_views(self):
        """No per-page copy: two calls hand out slices of the same table
        arrays, and neither can be written through."""
        table = make_table(capacity=4)
        table.extend([(1, 2), (3, 4), (5, 6), (7, 8), (9, 10)])
        first = table.page(1).columns(1)
        second = table.page(1).columns(1)
        whole = table.read_columns(1)
        for mine, theirs, column in zip(
            (first[0][0], first[1]), (second[0][0], second[1]),
            (whole[0][0], whole[1]),
        ):
            assert np.shares_memory(mine, theirs)
            assert np.shares_memory(mine, column)
            assert not mine.flags.writeable
            with pytest.raises(ValueError):
                mine[0] = 0

    def test_append_invalidates_cache(self):
        """There is no cache to go stale: an append shows at once."""
        table = make_table(capacity=4)
        table.append((1, 2))
        page = table.page(0)
        keys, _measures = page.columns(1)
        assert keys[0].tolist() == [1]
        table.append((7, 8))
        keys, measures = page.columns(1)
        assert keys[0].tolist() == [1, 7]
        assert measures.tolist() == [2, 8]

    def test_n_keys_change_rebuilds(self):
        table = make_table(("a", "b", "m"), capacity=4)
        table.append((1, 2, 3))
        page = table.page(0)
        keys2, measures2 = page.columns(2)
        keys1, measures1 = page.columns(1)
        assert len(keys2) == 2 and measures2.tolist() == [3]
        assert len(keys1) == 1 and measures1.tolist() == [2]
        assert measures1.dtype == np.int64

    def test_empty_page(self):
        page = Page(make_table(("a", "b", "c", "m"), capacity=4), 0)
        keys, measures = page.columns(3)
        assert [k.size for k in keys] == [0, 0, 0]
        assert measures.size == 0
        assert len(page) == 0 and page.rows == []

    def test_update_invalidates_cache(self):
        """An in-place measure update shows through ``columns`` — even
        through a batch handed out before it."""
        table = make_table(capacity=4)
        table.append((1, 2))
        page = table.page(0)
        before = page.columns(1)[1]
        assert before.tolist() == [2]
        table.update_measures(np.asarray([0]), np.asarray([9]))
        keys, measures = page.columns(1)
        assert keys[0].tolist() == [1]
        assert measures.tolist() == [9]
        assert before.tolist() == [9]
        assert page[0] == (1, 9)
