"""Unit and property tests for the hash aggregation operator.

Measures are int64 cents and every fold state is an integer, so a result is
the same under any batching, row order and compaction schedule — held here
to a plain-Python integer fold with ``==`` (dict order included).
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.operators import aggregate as aggregate_module
from repro.core.operators.aggregate import HashAggregator, fold_groups
from repro.core.operators.pipeline import QueryPipeline
from repro.schema.query import Aggregate, GroupBy, GroupByQuery

from conftest import make_tiny_schema

SCHEMA = make_tiny_schema()  # X: 12/6/2 leaves/mids/tops; Y: 8/4/2.


def make_aggregator(levels=(1, 1), aggregate=Aggregate.SUM):
    query = GroupByQuery(groupby=GroupBy(levels), aggregate=aggregate)
    return HashAggregator(SCHEMA, query)


def feed(agg, columns, cents, batches=1):
    columns = [np.asarray(c, dtype=np.int64) for c in columns]
    cents = np.asarray(cents, dtype=np.int64)
    n = cents.size
    step = max(1, n // batches)
    for start in range(0, n, step):
        agg.update(
            [c[start : start + step] for c in columns], cents[start : start + step]
        )


def pipeline_feed(columns, cents):
    """One batch through a predicate-free pipeline whose aggregator groups
    at the source's levels: the pipeline, and what it says to charge."""
    query = GroupByQuery(groupby=GroupBy((1, 1)))
    pipe = QueryPipeline(SCHEMA, query, (1, 1))
    counts = pipe.process_batch(
        [np.asarray(c, dtype=np.int64) for c in columns],
        np.asarray(cents, dtype=np.int64),
    )
    return pipe, counts


class TestSum:
    def test_simple_groups(self):
        agg = make_aggregator()
        feed(agg, [[0, 0, 1], [0, 0, 0]], [100, 210, 404])
        result = agg.result()
        assert result.groups == {(0, 0): 3.1, (1, 0): 4.04}

    def test_multi_batch_equals_single_batch(self):
        rng = np.random.default_rng(0)
        xs = rng.integers(0, 6, 200)
        ys = rng.integers(0, 4, 200)
        ms = rng.integers(-1000, 1000, 200)
        one = make_aggregator()
        feed(one, [xs, ys], ms, batches=1)
        many = make_aggregator()
        feed(many, [xs, ys], ms, batches=7)
        assert list(one.result().groups.items()) == list(
            many.result().groups.items()
        )

    def test_empty_batch_is_noop(self):
        pipe, counts = pipeline_feed([[], []], [])
        assert pipe.result().groups == {}
        assert counts.agg_updates == 0

    def test_charges_per_tuple(self):
        """An aggregate update per folded tuple, charged by its pipeline."""
        _pipe, counts = pipeline_feed([[0, 1, 2], [0, 1, 2]], [100, 100, 100])
        assert counts.agg_updates == counts.tuple_copies == 3

    def test_all_level_dimension_carries_zero(self):
        agg = make_aggregator(levels=(1, SCHEMA.dimensions[1].all_level))
        feed(agg, [[2, 2], [0, 0]], [500, 700])
        assert agg.result().groups == {(2, 0): 12.0}


class TestOtherAggregates:
    def test_count(self):
        agg = make_aggregator(aggregate=Aggregate.COUNT)
        feed(agg, [[0, 0, 1], [0, 0, 0]], [900, 900, 900])
        assert agg.result().groups == {(0, 0): 2.0, (1, 0): 1.0}

    def test_min_across_batches(self):
        agg = make_aggregator(aggregate=Aggregate.MIN)
        feed(agg, [[0, 0], [0, 0]], [500, 300], batches=2)
        feed(agg, [[0], [0]], [400])
        assert agg.result().groups == {(0, 0): 3.0}

    def test_max_across_batches(self):
        agg = make_aggregator(aggregate=Aggregate.MAX)
        feed(agg, [[0, 1], [0, 0]], [500, 300], batches=2)
        feed(agg, [[1], [0]], [900])
        assert agg.result().groups == {(0, 0): 5.0, (1, 0): 9.0}


@st.composite
def batches_strategy(draw):
    n = draw(st.integers(1, 120))
    xs = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    ys = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    ms = draw(
        st.lists(st.integers(-10**12, 10**12), min_size=n, max_size=n)
    )
    return xs, ys, ms


def python_fold(rows, aggregate):
    """Plain Python: fold each group's cents as ints, then divide once —
    cents / 100, a count as it is, sum / (100 * count) — in key order."""
    state = {}
    for x, y, cents in rows:
        have, count = state.get((x, y), (None, 0))
        if have is None:
            have = cents
        elif aggregate is Aggregate.MIN:
            have = min(have, cents)
        elif aggregate is Aggregate.MAX:
            have = max(have, cents)
        else:
            have += cents
        state[(x, y)] = (have, count + 1)
    out = {}
    for key, (have, count) in sorted(state.items()):
        if aggregate is Aggregate.COUNT:
            out[key] = float(count)
        elif aggregate is Aggregate.AVG:
            out[key] = have / (100 * count)
        else:
            out[key] = have / 100
    return out


class TestAvg:
    def test_simple_average(self):
        agg = make_aggregator(aggregate=Aggregate.AVG)
        feed(agg, [[0, 0, 1], [0, 0, 0]], [200, 400, 1000])
        assert agg.result().groups == {(0, 0): 3.0, (1, 0): 10.0}

    def test_average_across_batches(self):
        agg = make_aggregator(aggregate=Aggregate.AVG)
        feed(agg, [[0], [0]], [100])
        feed(agg, [[0, 0], [0, 0]], [201, 901])
        assert agg.result().groups == {(0, 0): 1202 / 300}


class TestAgainstBruteForce:
    @given(batches_strategy(), st.sampled_from(list(Aggregate)))
    @settings(max_examples=60, deadline=None)
    def test_matches_dict_accumulation(self, data, aggregate):
        xs, ys, ms = data
        agg = make_aggregator(aggregate=aggregate)
        feed(agg, [xs, ys], ms, batches=3)
        got = agg.result().groups
        want = python_fold(zip(xs, ys, ms), aggregate)
        assert list(got.items()) == list(want.items())

    @given(
        batches_strategy(),
        st.sampled_from(list(Aggregate)),
        st.randoms(use_true_random=False),
        st.sampled_from([1, 2, 7, aggregate_module.COMPACT_ROWS]),
    )
    @settings(max_examples=150, deadline=None)
    def test_order_free_under_any_batching(
        self, data, aggregate, random, compact_rows
    ):
        """Any row permutation, any split into ``update`` batches (empty
        ones included) and any compaction budget: the result is ``==`` to
        the plain-Python integer fold, group order included."""
        rows = list(zip(*data))
        random.shuffle(rows)
        cuts = sorted(random.choices(range(len(rows) + 1), k=random.randint(0, 6)))
        agg = make_aggregator(aggregate=aggregate)
        with mock.patch.object(aggregate_module, "COMPACT_ROWS", compact_rows):
            for batch in np.split(np.array(rows, dtype=np.int64), cuts):
                agg.update([batch[:, 0], batch[:, 1]], batch[:, 2])
        got = agg.result().groups
        want = python_fold(rows, aggregate)
        assert list(got.items()) == list(want.items())

    # -- the same on fixed seeded cases -----------------------------------------
    #
    # Seeded batches, fed one ``update`` per batch, laid end to end in fewer
    # calls (as a shared scan hands a member its morsels), or under either
    # extreme of the compaction budget: always bit-equal to the plain-Python
    # integer fold, groups in key order.

    @staticmethod
    def random_batches(seed):
        rng = np.random.default_rng(seed)
        return [
            (
                rng.integers(0, 6, n),
                rng.integers(0, 4, n),
                rng.integers(-5000, 5000, n),
            )
            for n in rng.integers(1, 60, rng.integers(1, 9))
        ]

    @staticmethod
    def run(batches, aggregate):
        agg = make_aggregator(aggregate=aggregate)
        for xs, ys, ms in batches:
            agg.update([xs, ys], ms)
        return agg.result()

    @staticmethod
    def run_packed(batches, aggregate, folds):
        """The same batches in ``folds`` calls, each a run of batches
        concatenated (a call with no row is never made)."""
        agg = make_aggregator(aggregate=aggregate)
        cuts = np.linspace(0, len(batches), folds + 1).astype(int)
        for lo, hi in zip(cuts, cuts[1:]):
            if hi == lo:
                continue
            xs, ys, ms = (np.concatenate(c) for c in zip(*batches[lo:hi]))
            if ms.size:
                agg.update([xs, ys], ms)
        return agg.result()

    @staticmethod
    def assert_exact(got, batches, aggregate):
        rows = [
            row
            for xs, ys, ms in batches
            for row in zip(xs.tolist(), ys.tolist(), ms.tolist())
        ]
        want = python_fold(rows, aggregate)
        assert [(k, v.hex()) for k, v in got.groups.items()] == [
            (k, v.hex()) for k, v in want.items()
        ]

    @pytest.mark.parametrize("aggregate", list(Aggregate))
    @pytest.mark.parametrize("seed", range(6))
    def test_fold_order_is_the_documented_one(self, seed, aggregate):
        batches = self.random_batches(seed)
        self.assert_exact(self.run(batches, aggregate), batches, aggregate)

    @pytest.mark.parametrize("aggregate", list(Aggregate))
    @pytest.mark.parametrize("seed", range(6))
    def test_one_packed_fold_is_an_update_per_batch(self, seed, aggregate):
        """One ``update`` over concatenated batches gives exactly what one
        ``update`` per batch gives — with a batch that leaves no row, and
        in one, two or three calls."""
        batches = self.random_batches(seed)
        nothing = tuple(column[:0] for column in batches[0])
        batches.insert(len(batches) // 2, nothing)
        self.assert_exact(self.run(batches, aggregate), batches, aggregate)
        for folds in (1, 2, 3):
            got = self.run_packed(batches, aggregate, folds)
            self.assert_exact(got, batches, aggregate)

    @pytest.mark.parametrize("aggregate", list(Aggregate))
    def test_compaction_schedule_never_shows(self, monkeypatch, aggregate):
        batches = self.random_batches(42)
        for rows in (1, 2**62):
            monkeypatch.setattr(aggregate_module, "COMPACT_ROWS", rows)
            self.assert_exact(self.run(batches, aggregate), batches, aggregate)
            got = self.run_packed(batches, aggregate, 2)
            self.assert_exact(got, batches, aggregate)

    @pytest.mark.parametrize("aggregate", list(Aggregate))
    def test_empty_and_single_row_round_trip(self, aggregate):
        """``result`` divides once; ``columns`` hands over the integer
        state (AVG's is a pair, which nothing re-aggregates)."""
        empty = make_aggregator(aggregate=aggregate)
        assert empty.n_groups == 0
        assert empty.result().groups == {}

        one = make_aggregator(aggregate=aggregate)
        feed(one, [[5], [3]], [725])
        value = 1.0 if aggregate is Aggregate.COUNT else 7.25
        assert one.n_groups == 1
        assert one.result().groups == {(5, 3): value}
        if aggregate is Aggregate.AVG:
            with pytest.raises(ValueError):
                one.columns()
            return
        keys, values = empty.columns()
        assert [k.size for k in keys] == [0, 0] and values.size == 0
        keys, values = one.columns()
        assert [k.tolist() for k in keys] == [[5], [3]]
        assert values.dtype == np.int64
        assert values.tolist() == [1 if aggregate is Aggregate.COUNT else 725]

    @pytest.mark.parametrize("aggregate", list(Aggregate))
    def test_fold_groups_on_an_empty_column(self, aggregate):
        codes, *folded = fold_groups(
            np.empty(0, np.int64), np.empty(0, np.int64), aggregate
        )
        assert codes.size == 0 and codes.dtype == np.int64
        assert len(folded) == (2 if aggregate is Aggregate.AVG else 1)
        assert all(column.size == 0 for column in folded)
