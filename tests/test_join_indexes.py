"""Unit and property tests for bitmap and position-list join indexes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.bitmap_index import BitmapJoinIndex
from repro.index.btree import PositionListJoinIndex
from repro.storage.iostats import IOStats
from repro.storage.table import HeapTable

from helpers import index_state


def make_table(keys, page_size=64):
    table = HeapTable("f", ("a", "m"), page_size=page_size)
    table.extend((k, float(i)) for i, k in enumerate(keys))
    return table


def build(cls, keys, key_to_member, n_members):
    table = make_table(keys)
    return table, cls.build(
        table,
        "f",
        dim_index=0,
        level=1,
        column_index=0,
        key_to_member=np.asarray(key_to_member, dtype=np.int64),
        n_members=n_members,
    )


IDENTITY4 = [0, 1, 2, 3]


class TestBitmapJoinIndex:
    def test_lookup_positions_exact(self):
        keys = [0, 1, 2, 3, 0, 1, 2, 3, 0]
        _table, index = build(BitmapJoinIndex, keys, IDENTITY4, 4)
        stats = IOStats()
        assert index.lookup([1], stats).positions().tolist() == [1, 5]
        assert index.lookup([0], stats).positions().tolist() == [0, 4, 8]

    def test_lookup_multiple_members_is_or(self):
        keys = [0, 1, 2, 3, 0, 1]
        _table, index = build(BitmapJoinIndex, keys, IDENTITY4, 4)
        stats = IOStats()
        bm = index.lookup([0, 3], stats)
        assert bm.positions().tolist() == [0, 3, 4]

    def test_missing_member_yields_empty(self):
        keys = [0, 0, 0]
        _table, index = build(BitmapJoinIndex, keys, IDENTITY4, 4)
        stats = IOStats()
        assert index.lookup([2], stats).count() == 0

    def test_rollup_mapping(self):
        # Keys 0..3 roll into two members (0,0,1,1).
        keys = [0, 1, 2, 3, 2]
        _table, index = build(BitmapJoinIndex, keys, [0, 0, 1, 1], 2)
        stats = IOStats()
        assert index.lookup([1], stats).positions().tolist() == [2, 3, 4]
        assert index.n_members == 2

    def test_lookup_charges_io_and_lookups(self):
        keys = list(range(4)) * 10
        _table, index = build(BitmapJoinIndex, keys, IDENTITY4, 4)
        stats = IOStats()
        index.lookup([0, 1], stats)
        assert stats.index_lookups == 2
        assert stats.seq_page_reads == index.pages_per_lookup(2)
        assert stats.bitmap_word_ops > 0  # the OR of two bitmaps

    def test_empty_table(self):
        table = make_table([])
        index = BitmapJoinIndex.build(
            table, "f", 0, 1, 0, np.asarray(IDENTITY4), 4
        )
        stats = IOStats()
        assert index.lookup([0], stats).count() == 0

    def test_bitmap_for(self):
        keys = [0, 1, 0]
        _table, index = build(BitmapJoinIndex, keys, IDENTITY4, 4)
        assert index.bitmap_for(0).positions().tolist() == [0, 2]
        assert index.bitmap_for(3).count() == 0


class TestPositionListJoinIndex:
    def test_lookup_positions_exact(self):
        keys = [0, 1, 2, 3, 0, 1]
        _table, index = build(PositionListJoinIndex, keys, IDENTITY4, 4)
        stats = IOStats()
        assert index.lookup([1], stats).positions().tolist() == [1, 5]

    def test_positions_for(self):
        keys = [3, 1, 3, 1]
        _table, index = build(PositionListJoinIndex, keys, IDENTITY4, 4)
        assert index.positions_for(3).tolist() == [0, 2]
        assert index.positions_for(0).size == 0

    def test_lookup_charges_random_descent(self):
        keys = list(range(4)) * 5
        _table, index = build(PositionListJoinIndex, keys, IDENTITY4, 4)
        stats = IOStats()
        index.lookup([0, 1], stats)
        assert stats.rand_page_reads == 2  # one descent per member
        assert stats.index_lookups == 2

    def test_missing_member_still_charges_descent(self):
        keys = [0, 0]
        _table, index = build(PositionListJoinIndex, keys, IDENTITY4, 4)
        stats = IOStats()
        assert index.lookup([3], stats).count() == 0
        assert stats.rand_page_reads == 1


class TestEquivalence:
    @given(
        keys=st.lists(st.integers(0, 5), min_size=0, max_size=120),
        members=st.sets(st.integers(0, 2), min_size=1, max_size=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_both_payloads_agree(self, keys, members):
        """The two index kinds return identical bitmaps for any lookup."""
        key_to_member = [0, 0, 1, 1, 2, 2]
        table = make_table(keys)
        kwargs = dict(
            table_name="f",
            dim_index=0,
            level=1,
            column_index=0,
            key_to_member=np.asarray(key_to_member, dtype=np.int64),
            n_members=3,
        )
        bitmap_index = BitmapJoinIndex.build(table, **kwargs)
        rid_index = PositionListJoinIndex.build(table, **kwargs)
        a = bitmap_index.lookup(sorted(members), IOStats())
        b = rid_index.lookup(sorted(members), IOStats())
        assert a == b
        # And both agree with a brute-force scan.
        expected = [
            i
            for i, k in enumerate(keys)
            if key_to_member[k] in members
        ]
        assert a.positions().tolist() == expected


class TestGrownIndex:
    """An index extended under maintenance is the index a fresh build over
    the grown table gives — payload and accounted size alike."""

    @pytest.mark.parametrize("cls", [BitmapJoinIndex, PositionListJoinIndex])
    def test_grown_across_a_payload_page_equals_fresh_build(self, cls):
        # 8 KB of bitmap payload cover 65,536 rows: grow across that.
        key_to_member = np.asarray([0, 0, 1, 1, 2, 2], dtype=np.int64)
        keys = np.arange(65_700, dtype=np.int64) % 5  # member 2 is sparse
        table = HeapTable("f", ("a", "m"), page_size=64)
        kwargs = dict(
            table_name="f", dim_index=0, level=1, column_index=0,
            key_to_member=key_to_member, n_members=3,
        )
        first = 65_500
        table.extend_columns([keys[:first]], np.zeros(first))
        index = cls.build(table, **kwargs)
        small = index_state(index, 3)
        for stop in (65_536, 65_537, 65_700):
            table.extend_columns([keys[first:stop]], np.zeros(stop - first))
            index.extend(key_to_member[keys[first:stop]])
            first = stop
            assert index_state(index, 3) == index_state(
                cls.build(table, **kwargs), 3
            ), stop
        if cls is BitmapJoinIndex:
            assert index.pages_per_lookup(1) == 2 * small["pages_per_lookup"][1]
            assert index.n_pages == 2 * small["n_pages"]

    @given(
        keys=st.lists(st.integers(0, 5), max_size=80),
        cuts=st.lists(st.integers(0, 80), max_size=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_sequence_of_extends_equals_one_build(self, keys, cuts):
        key_to_member = np.asarray([0, 0, 1, 1, 2, 2], dtype=np.int64)
        members = key_to_member[np.asarray(keys, dtype=np.int64)]
        table = make_table(keys)
        for cls in (BitmapJoinIndex, PositionListJoinIndex):
            grown = cls("f", 0, 1, 0, {})
            bounds = sorted({min(c, len(keys)) for c in cuts} | {0, len(keys)})
            for lo, hi in zip(bounds, bounds[1:]):
                grown.extend(members[lo:hi])
            built = cls.build(table, "f", 0, 1, 0, key_to_member, 3)
            assert index_state(grown, 3) == index_state(built, 3)
