"""Unit and property tests for the hash aggregation operator."""

import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.operators import aggregate as aggregate_module
from repro.core.operators.aggregate import HashAggregator, fold_groups
from repro.schema.query import Aggregate, GroupBy, GroupByQuery
from repro.storage.iostats import IOStats

from conftest import make_tiny_schema

SCHEMA = make_tiny_schema()  # X: 12/6/2 leaves/mids/tops; Y: 8/4/2.


def make_aggregator(levels=(1, 1), aggregate=Aggregate.SUM):
    query = GroupByQuery(groupby=GroupBy(levels), aggregate=aggregate)
    return HashAggregator(SCHEMA, query)


def feed(agg, columns, measures, batches=1):
    stats = IOStats()
    columns = [np.asarray(c, dtype=np.int64) for c in columns]
    measures = np.asarray(measures, dtype=np.float64)
    n = measures.size
    step = max(1, n // batches)
    for start in range(0, n, step):
        agg.update(
            [c[start : start + step] for c in columns],
            measures[start : start + step],
            stats,
        )
    return stats


class TestSum:
    def test_simple_groups(self):
        agg = make_aggregator()
        feed(agg, [[0, 0, 1], [0, 0, 0]], [1.0, 2.0, 4.0])
        result = agg.result()
        assert result.groups == {(0, 0): 3.0, (1, 0): 4.0}

    def test_multi_batch_equals_single_batch(self):
        rng = np.random.default_rng(0)
        xs = rng.integers(0, 6, 200)
        ys = rng.integers(0, 4, 200)
        ms = rng.uniform(0, 10, 200)
        one = make_aggregator()
        feed(one, [xs, ys], ms, batches=1)
        many = make_aggregator()
        feed(many, [xs, ys], ms, batches=7)
        assert one.result().approx_equals(many.result())

    def test_empty_batch_is_noop(self):
        agg = make_aggregator()
        stats = feed(agg, [[], []], [])
        assert agg.result().groups == {}
        assert stats.agg_updates == 0

    def test_charges_per_tuple(self):
        agg = make_aggregator()
        stats = feed(agg, [[0, 1, 2], [0, 1, 2]], [1.0, 1.0, 1.0])
        assert stats.agg_updates == 3

    def test_all_level_dimension_carries_zero(self):
        agg = make_aggregator(levels=(1, SCHEMA.dimensions[1].all_level))
        feed(agg, [[2, 2], [0, 0]], [5.0, 7.0])
        assert agg.result().groups == {(2, 0): 12.0}


class TestOtherAggregates:
    def test_count(self):
        agg = make_aggregator(aggregate=Aggregate.COUNT)
        feed(agg, [[0, 0, 1], [0, 0, 0]], [9.0, 9.0, 9.0])
        assert agg.result().groups == {(0, 0): 2.0, (1, 0): 1.0}

    def test_min_across_batches(self):
        agg = make_aggregator(aggregate=Aggregate.MIN)
        feed(agg, [[0, 0], [0, 0]], [5.0, 3.0], batches=2)
        feed(agg, [[0], [0]], [4.0])
        assert agg.result().groups == {(0, 0): 3.0}

    def test_max_across_batches(self):
        agg = make_aggregator(aggregate=Aggregate.MAX)
        feed(agg, [[0, 1], [0, 0]], [5.0, 3.0], batches=2)
        feed(agg, [[1], [0]], [9.0])
        assert agg.result().groups == {(0, 0): 5.0, (1, 0): 9.0}


@st.composite
def batches_strategy(draw):
    n = draw(st.integers(1, 120))
    xs = draw(
        st.lists(st.integers(0, 5), min_size=n, max_size=n)
    )
    ys = draw(
        st.lists(st.integers(0, 3), min_size=n, max_size=n)
    )
    ms = draw(
        st.lists(
            st.floats(
                min_value=-100, max_value=100, allow_nan=False, width=32
            ),
            min_size=n,
            max_size=n,
        )
    )
    return xs, ys, ms


class TestAvg:
    def test_simple_average(self):
        agg = make_aggregator(aggregate=Aggregate.AVG)
        feed(agg, [[0, 0, 1], [0, 0, 0]], [2.0, 4.0, 10.0])
        assert agg.result().groups == {(0, 0): 3.0, (1, 0): 10.0}

    def test_average_across_batches(self):
        agg = make_aggregator(aggregate=Aggregate.AVG)
        feed(agg, [[0], [0]], [1.0])
        feed(agg, [[0, 0], [0, 0]], [2.0, 9.0])
        assert agg.result().groups == {(0, 0): pytest.approx(4.0)}


class TestAgainstBruteForce:
    @given(batches_strategy(), st.sampled_from(list(Aggregate)))
    @settings(max_examples=60, deadline=None)
    def test_matches_dict_accumulation(self, data, aggregate):
        xs, ys, ms = data
        agg = make_aggregator(aggregate=aggregate)
        feed(agg, [xs, ys], ms, batches=3)
        expected = {}
        counts = {}
        for x, y, m in zip(xs, ys, ms):
            key = (x, y)
            counts[key] = counts.get(key, 0) + 1
            if aggregate in (Aggregate.SUM, Aggregate.AVG):
                expected[key] = expected.get(key, 0.0) + m
            elif aggregate is Aggregate.COUNT:
                expected[key] = expected.get(key, 0.0) + 1
            elif aggregate is Aggregate.MIN:
                expected[key] = min(expected.get(key, m), m)
            else:
                expected[key] = max(expected.get(key, m), m)
        if aggregate is Aggregate.AVG:
            expected = {k: v / counts[k] for k, v in expected.items()}
        got = agg.result().groups
        assert set(got) == set(expected)
        for key, value in expected.items():
            assert got[key] == pytest.approx(value, rel=1e-9, abs=1e-6)

    # -- the float-order contract (DESIGN.md §6.1) ------------------------------
    #
    # SUM / AVG state is a float fold whose order the one group-by defines:
    # row order within a batch (from 0.0), arrival order across batches
    # (from 0.0), whenever compaction runs.  Groups come out in first-seen
    # order: by batch, and by key within the batch that introduces them.

    @staticmethod
    def random_batches(seed):
        rng = np.random.default_rng(seed)
        return [
            (
                rng.integers(0, 6, n),
                rng.integers(0, 4, n),
                np.round(rng.uniform(-50, 50, n), 2),
            )
            for n in rng.integers(1, 60, rng.integers(1, 9))
        ]

    @staticmethod
    def oracle(batches, aggregate):
        """Plain Python: ``{key: (value, count)}`` in first-seen order."""
        fold = {Aggregate.MIN: min, Aggregate.MAX: max}.get(aggregate, operator.add)
        start = 0.0 if fold is operator.add else None

        def step(have, new):
            return new if have is None else fold(have, new)

        state = {}
        for xs, ys, ms in batches:
            partial = {}
            for x, y, m in zip(xs.tolist(), ys.tolist(), ms.tolist()):
                value, count = partial.get((x, y), (start, 0))
                if aggregate is Aggregate.COUNT:
                    m = 1.0
                partial[(x, y)] = (step(value, m), count + 1)
            for key in sorted(partial):
                value, count = state.get(key, (start, 0))
                state[key] = (step(value, partial[key][0]), count + partial[key][1])
        return state

    @staticmethod
    def run(batches, aggregate):
        agg = make_aggregator(aggregate=aggregate)
        stats = IOStats()
        for xs, ys, ms in batches:
            agg.update([xs, ys], ms, stats)
        return agg.result()

    @staticmethod
    def run_packed(batches, aggregate, folds):
        """The same batches in ``folds`` calls: each lays its run of batches
        end to end with a batch ordinal per row, as a shared scan hands a
        member its morsels (a lone batch goes unpacked, as a lone morsel)."""
        agg = make_aggregator(aggregate=aggregate)
        cuts = np.linspace(0, len(batches), folds + 1).astype(int)
        for lo, hi in zip(cuts, cuts[1:]):
            sizes = [len(batch[2]) for batch in batches[lo:hi]]
            if not sum(sizes):  # a fold without a surviving row is never made
                continue
            xs, ys, ms = (np.concatenate(c) for c in zip(*batches[lo:hi]))
            ordinals = np.repeat(np.arange(hi - lo), sizes) if hi - lo > 1 else None
            agg.update([xs, ys], ms, None, ordinals)
        return agg.result()

    @staticmethod
    def assert_documented(got, want, aggregate):
        if aggregate is Aggregate.AVG:
            want = {k: (s / n, n) for k, (s, n) in want.items()}
        assert list(got.groups) == list(want)
        assert [v.hex() for v in got.groups.values()] == [
            v.hex() for v, _n in want.values()
        ]

    @pytest.mark.parametrize("aggregate", list(Aggregate))
    @pytest.mark.parametrize("seed", range(6))
    def test_fold_order_is_the_documented_one(self, seed, aggregate):
        batches = self.random_batches(seed)
        want = self.oracle(batches, aggregate)
        self.assert_documented(self.run(batches, aggregate), want, aggregate)

    @pytest.mark.parametrize("aggregate", list(Aggregate))
    @pytest.mark.parametrize("seed", range(6))
    def test_one_packed_fold_is_an_update_per_batch(self, seed, aggregate):
        """Fold per scan: the (batch ordinal, group) packed code makes one
        ``update`` buffer exactly the partials that one ``update`` per batch
        would, in the same order — with a batch that leaves no row, and with
        the row budget forcing two or three folds mid-scan."""
        batches = self.random_batches(seed)
        nothing = tuple(column[:0] for column in batches[0])
        batches.insert(len(batches) // 2, nothing)
        want = self.oracle(batches, aggregate)
        self.assert_documented(self.run(batches, aggregate), want, aggregate)
        for folds in (1, 2, 3):
            got = self.run_packed(batches, aggregate, folds)
            self.assert_documented(got, want, aggregate)

    @pytest.mark.parametrize("aggregate", list(Aggregate))
    def test_compaction_schedule_never_shows(self, monkeypatch, aggregate):
        def bits(result):
            return [(k, v.hex()) for k, v in result.groups.items()]

        batches = self.random_batches(42)
        default = bits(self.run(batches, aggregate))
        for rows in (1, 2**62):
            monkeypatch.setattr(aggregate_module, "COMPACT_ROWS", rows)
            assert bits(self.run(batches, aggregate)) == default
            assert bits(self.run_packed(batches, aggregate, 2)) == default

    @pytest.mark.parametrize("aggregate", list(Aggregate))
    def test_empty_and_single_row_round_trip(self, aggregate):
        empty = make_aggregator(aggregate=aggregate)
        assert empty.n_groups == 0
        assert empty.result().groups == {}
        keys, values = empty.columns()
        assert [k.size for k in keys] == [0, 0] and values.size == 0

        one = make_aggregator(aggregate=aggregate)
        feed(one, [[5], [3]], [7.25])
        value = 1.0 if aggregate is Aggregate.COUNT else 7.25
        assert one.n_groups == 1
        assert one.result().groups == {(5, 3): value}
        keys, values = one.columns()
        assert [k.tolist() for k in keys] == [[5], [3]]
        assert values.tolist() == [value]

    @pytest.mark.parametrize("aggregate", list(Aggregate))
    def test_fold_groups_on_an_empty_column(self, aggregate):
        codes, *folded = fold_groups(
            np.empty(0, np.int64), np.empty(0), aggregate
        )
        assert codes.size == 0 and codes.dtype == np.int64
        assert len(folded) == (2 if aggregate is Aggregate.AVG else 1)
        assert all(column.size == 0 for column in folded)
