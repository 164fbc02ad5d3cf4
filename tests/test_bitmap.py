"""Unit and property tests for word-packed bitmaps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.bitmap import WORD_BITS, Bitmap, and_all, or_all


def bitmap_strategy(max_bits=200):
    return st.integers(min_value=0, max_value=max_bits).flatmap(
        lambda n: st.builds(
            lambda positions: Bitmap.from_positions(n, positions),
            st.lists(
                st.integers(min_value=0, max_value=max(0, n - 1)),
                unique=True,
                max_size=n,
            )
            if n
            else st.just([]),
        )
    )


def pair_strategy(max_bits=200):
    return st.integers(min_value=0, max_value=max_bits).flatmap(
        lambda n: st.tuples(
            st.builds(
                lambda ps: Bitmap.from_positions(n, ps),
                st.lists(st.integers(0, max(0, n - 1)), unique=True, max_size=n)
                if n
                else st.just([]),
            ),
            st.builds(
                lambda ps: Bitmap.from_positions(n, ps),
                st.lists(st.integers(0, max(0, n - 1)), unique=True, max_size=n)
                if n
                else st.just([]),
            ),
        )
    )


class TestBasics:
    def test_zeros_and_ones(self):
        z = Bitmap.zeros(70)
        assert z.count() == 0 and not z.any()
        o = Bitmap.ones(70)
        assert o.count() == 70 and o.any()
        assert o.positions().tolist() == list(range(70))

    def test_set_get(self):
        bm = Bitmap.zeros(130)
        bm.set(0)
        bm.set(64)
        bm.set(129)
        assert bm.get(0) and bm.get(64) and bm.get(129)
        assert not bm.get(1)
        bm.set(64, False)
        assert not bm.get(64)
        assert bm.count() == 2

    def test_out_of_range(self):
        bm = Bitmap.zeros(10)
        with pytest.raises(IndexError):
            bm.get(10)
        with pytest.raises(IndexError):
            bm.set(-1)
        with pytest.raises(IndexError):
            Bitmap.from_positions(5, [5])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Bitmap.zeros(10) | Bitmap.zeros(11)

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(Bitmap.zeros(8))

    def test_n_words(self):
        assert Bitmap.zeros(1).n_words == 1
        assert Bitmap.zeros(64).n_words == 1
        assert Bitmap.zeros(65).n_words == 2
        assert Bitmap.zeros(0).n_words == 0

    def test_empty_bitmap(self):
        bm = Bitmap.zeros(0)
        assert bm.count() == 0
        assert bm.positions().size == 0
        assert (~bm).count() == 0


class TestAlgebra:
    def test_invert_masks_tail(self):
        bm = Bitmap.zeros(70)
        inv = ~bm
        assert inv.count() == 70  # no phantom bits beyond n_bits

    def test_ones_tail_masked(self):
        assert Bitmap.ones(65).count() == 65

    @given(pair_strategy())
    @settings(max_examples=60, deadline=None)
    def test_or_is_union(self, pair):
        a, b = pair
        union = set(a.positions().tolist()) | set(b.positions().tolist())
        assert set((a | b).positions().tolist()) == union

    @given(pair_strategy())
    @settings(max_examples=60, deadline=None)
    def test_and_is_intersection(self, pair):
        a, b = pair
        inter = set(a.positions().tolist()) & set(b.positions().tolist())
        assert set((a & b).positions().tolist()) == inter

    @given(pair_strategy())
    @settings(max_examples=60, deadline=None)
    def test_xor_is_symmetric_difference(self, pair):
        a, b = pair
        sym = set(a.positions().tolist()) ^ set(b.positions().tolist())
        assert set((a ^ b).positions().tolist()) == sym

    @given(bitmap_strategy())
    @settings(max_examples=60, deadline=None)
    def test_de_morgan(self, a):
        b = ~a
        assert (a & b).count() == 0
        assert (a | b).count() == a.n_bits

    @given(bitmap_strategy())
    @settings(max_examples=60, deadline=None)
    def test_double_invert_roundtrip(self, a):
        assert ~~a == a


class TestConversions:
    @given(bitmap_strategy())
    @settings(max_examples=60, deadline=None)
    def test_positions_roundtrip(self, a):
        again = Bitmap.from_positions(a.n_bits, a.positions())
        assert again == a

    @given(bitmap_strategy())
    @settings(max_examples=60, deadline=None)
    def test_bool_array_roundtrip(self, a):
        assert Bitmap.from_bool_array(a.to_bool_array()) == a

    @given(bitmap_strategy())
    @settings(max_examples=60, deadline=None)
    def test_count_matches_positions(self, a):
        assert a.count() == a.positions().size

    @pytest.mark.parametrize("n_bits", [0, 1, 63, 64, 65, 1000])
    def test_positions_equal_the_bool_array(self, n_bits):
        rng = np.random.default_rng(n_bits)
        for density in (0.0, 0.05, 0.5, 1.0):
            mask = rng.random(n_bits) < density
            positions = Bitmap.from_bool_array(mask).positions()
            assert positions.dtype == np.int64
            assert positions.tolist() == np.flatnonzero(mask).tolist()

    @given(bitmap_strategy())
    @settings(max_examples=60, deadline=None)
    def test_positions_equal_the_bool_array_at_any_length(self, a):
        positions = a.positions()
        assert positions.dtype == np.int64
        assert positions.tolist() == np.flatnonzero(a.to_bool_array()).tolist()

    def test_from_bool_array_values(self):
        mask = np.zeros(100, dtype=bool)
        mask[[0, 63, 64, 99]] = True
        bm = Bitmap.from_bool_array(mask)
        assert bm.positions().tolist() == [0, 63, 64, 99]


class TestBulkOps:
    def test_or_all(self):
        bms = [Bitmap.from_positions(50, [i]) for i in (1, 2, 3)]
        assert or_all(bms).positions().tolist() == [1, 2, 3]

    def test_or_all_empty_needs_size(self):
        assert or_all([], n_bits=10).count() == 0
        with pytest.raises(ValueError):
            or_all([])

    def test_and_all(self):
        a = Bitmap.from_positions(50, [1, 2, 3])
        b = Bitmap.from_positions(50, [2, 3, 4])
        assert and_all([a, b]).positions().tolist() == [2, 3]

    def test_and_all_empty_is_ones(self):
        assert and_all([], n_bits=10).count() == 10

    def test_bulk_ops_do_not_mutate_inputs(self):
        a = Bitmap.from_positions(50, [1])
        b = Bitmap.from_positions(50, [2])
        or_all([a, b])
        and_all([a, b])
        assert a.positions().tolist() == [1]
        assert b.positions().tolist() == [2]


class TestPackedKernels:
    """test_positions: packed-word reads must equal the
    full-unpack reference exactly — the kernel execution path's contract."""

    @given(bitmap_strategy())
    @settings(max_examples=60, deadline=None)
    def test_test_positions_matches_unpack(self, a):
        dense = a.to_bool_array()
        if a.n_bits == 0:
            return
        positions = np.arange(a.n_bits, dtype=np.int64)
        np.testing.assert_array_equal(a.test_positions(positions), dense)
        # Unordered, repeated positions gather just as well.
        scrambled = np.asarray(
            [0, a.n_bits - 1, 0, a.n_bits // 2], dtype=np.int64
        )
        np.testing.assert_array_equal(
            a.test_positions(scrambled), dense[scrambled]
        )

    def test_test_positions_empty(self):
        a = Bitmap.zeros(70)
        out = a.test_positions(np.empty(0, dtype=np.int64))
        assert out.dtype == bool and out.size == 0
