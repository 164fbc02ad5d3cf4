"""Unit and property tests for bitmap and position-list join indexes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.bitmap import Bitmap
from repro.index.bitmap_index import BitmapJoinIndex
from repro.index.btree import PositionListJoinIndex
from repro.storage.iostats import Counts, IOStats
from repro.storage.table import HeapTable

from helpers import index_state


def make_table(keys, page_size=64):
    table = HeapTable("f", ("a", "m"), page_size=page_size)
    table.extend((k, i) for i, k in enumerate(keys))
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
        assert stats.seq_page_reads == 2 * index.pages_per_member
        assert stats.bitmap_word_ops == index.n_words  # the OR of two bitmaps
        # Both members are present, so the estimate is what was charged.
        assert stats.counts() == index.lookup_counts(2)

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
        # The estimate reads the same statement: descents are random reads.
        assert stats.counts() == index.lookup_counts(2)

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
        table.extend_columns([keys[:first]], np.zeros(first, np.int64))
        index = cls.build(table, **kwargs)
        small = index_state(index, 3)
        for stop in (65_536, 65_537, 65_700):
            table.extend_columns([keys[first:stop]], np.zeros(stop - first, np.int64))
            index.extend(key_to_member[keys[first:stop]])
            first = stop
            assert index_state(index, 3) == index_state(
                cls.build(table, **kwargs), 3
            ), stop
        if cls is BitmapJoinIndex:
            pages = small["lookup_counts"][1].seq_page_reads
            assert index.lookup_counts(1).seq_page_reads == 2 * pages
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
            grown = cls("f", 0, 1)
            bounds = sorted({min(c, len(keys)) for c in cuts} | {0, len(keys)})
            for lo, hi in zip(bounds, bounds[1:]):
                grown.extend(members[lo:hi])
            built = cls.build(table, "f", 0, 1, 0, key_to_member, 3)
            assert index_state(grown, 3) == index_state(built, 3)


def _charges(kind, n_rows, counts, members):
    """What a lookup of ``members`` charges, by the formulas each kind
    prices it with: a bitmap per member streamed and OR-ed, or a descent
    per member plus its RID leaves, converted to a bitmap."""
    n_words = (n_rows + 63) // 64
    found = [m for m in members if counts.get(m, 0)]
    charged = {"index_lookups": len(members)}
    if kind is BitmapJoinIndex:
        per_member = max(1, ((n_rows + 7) // 8 + 8191) // 8192)
        charged["seq_page_reads"] = len(members) * per_member
        if len(found) > 1:
            charged["bitmap_word_ops"] = n_words * (len(found) - 1)
    else:
        charged["rand_page_reads"] = len(members)
        charged["seq_page_reads"] = sum(
            max(1, (counts[m] * 4 + 8191) // 8192) - 1 for m in found
        )
        if found:
            charged["bitmap_word_ops"] = n_words
    return {name: value for name, value in charged.items() if value}


def _sizes(kind, n_rows, counts):
    """``n_pages`` and the estimate of a one-member lookup — the member
    taken as present, with the average member's payload — by the same
    formulas."""
    present = sum(1 for c in counts.values() if c)
    if kind is BitmapJoinIndex:
        per_member = max(1, ((n_rows + 7) // 8 + 8191) // 8192)
        one = Counts(seq_page_reads=per_member, index_lookups=1)
        return per_member * max(1, present), one
    leaf = lambda n: max(1, (n * 4 + 8191) // 8192)  # noqa: E731
    one = Counts(
        seq_page_reads=leaf(int(n_rows / present)) - 1 if present else 0,
        rand_page_reads=1,
        bitmap_word_ops=(n_rows + 63) // 64,
        index_lookups=1,
    )
    return leaf(n_rows), one


class TestOnePayload:
    """Both kinds hold one word matrix and differ only in what a lookup is
    charged: any stream of members, appended in any cuts, equals a fresh
    build, and every lookup is the OR of its members' bitmaps."""

    @pytest.mark.parametrize("kind", [BitmapJoinIndex, PositionListJoinIndex])
    @given(
        members=st.lists(st.integers(0, 40), max_size=300),
        cuts=st.lists(st.integers(0, 300), max_size=5),
        lookups=st.lists(
            st.lists(st.integers(-2, 50), max_size=6), min_size=1, max_size=4
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_grown_equals_built_and_lookup_is_the_or(
        self, kind, members, cuts, lookups
    ):
        stream = np.asarray(members, dtype=np.int64)
        grown = kind("f", 0, 1)
        bounds = sorted({min(c, stream.size) for c in cuts} | {0, stream.size})
        for lo, hi in zip(bounds, bounds[1:]):
            grown.extend(stream[lo:hi])
        # The build reserves all 41 members; the grown matrix has rows only
        # up to the largest member seen, so ids 41..50 are past its rows.
        built = kind.build(
            make_table(members), "f", 0, 1, 0, np.arange(41, dtype=np.int64), 41
        )
        counts = {m: members.count(m) for m in set(members)}
        sizes = _sizes(kind, stream.size, counts)
        for index in (grown, built):
            assert index.n_rows == stream.size
            assert index.n_members == len(counts)
            assert (index.n_pages, index.lookup_counts(1)) == sizes
            for ms in lookups:
                stats = IOStats()
                bitmap = index.lookup(ms, stats)
                expected = Bitmap.zeros(stream.size)
                for m in ms:
                    expected = expected | index.bitmap_for(m)
                assert bitmap == expected
                assert bitmap.positions().tolist() == [
                    i for i, m in enumerate(members) if m in ms
                ]
                charged = {k: v for k, v in stats.counts()._asdict().items() if v}
                assert charged == _charges(kind, stream.size, counts, ms)
        assert index_state(grown, 52) == index_state(built, 52)
