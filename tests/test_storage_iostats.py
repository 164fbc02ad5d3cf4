"""Unit tests for the simulated cost clock."""

import dataclasses
import json
import random
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.optimizer.cost import ClassState, CostModel
from repro.core.optimizer.terms import term_units
from repro.storage.iostats import DEFAULT_RATES, CostRates, Counts, IOStats
from repro.storage.iostats import build_counts, merge_counts, pipeline_counts
from repro.storage.iostats import pipeline_ms, read_counts, routing_counts
from repro.storage.iostats import routing_ms, shared_ms

from helpers import random_database, random_query
from test_cost_model import from_scratch, mdx_batch, shape, trial_shape


class TestCharging:
    def test_counters_accumulate(self):
        stats = IOStats()
        stats.charge(Counts(seq_page_reads=3))
        stats.charge(Counts(seq_page_reads=1, rand_page_reads=2))
        stats.charge(Counts(hash_probes=100))
        assert stats.seq_page_reads == 4
        assert stats.rand_page_reads == 2
        assert stats.hash_probes == 100

    def test_io_ms_matches_rates(self):
        rates = CostRates(seq_page_read_ms=2.0, rand_page_read_ms=10.0,
                          page_write_ms=5.0)
        stats = IOStats(rates=rates)
        stats.charge(Counts(seq_page_reads=3, rand_page_reads=1, page_writes=2))
        assert stats.io_ms == pytest.approx(3 * 2.0 + 10.0 + 2 * 5.0)

    def test_cpu_ms_matches_rates(self):
        rates = DEFAULT_RATES
        stats = IOStats(rates=rates)
        stats.charge(Counts(hash_probes=1000, agg_updates=500, index_lookups=2))
        expected = (
            1000 * rates.hash_probe_ms
            + 500 * rates.agg_update_ms
            + 2 * rates.index_lookup_ms
        )
        assert stats.cpu_ms == pytest.approx(expected)

    def test_total_is_io_plus_cpu(self):
        stats = IOStats()
        stats.charge(Counts(seq_page_reads=10, tuple_copies=100))
        assert stats.total_ms == pytest.approx(stats.io_ms + stats.cpu_ms)

    def test_buffer_hits_cost_nothing(self):
        stats = IOStats()
        stats.charge(Counts(), buffer_hits=100)
        assert stats.buffer_hits == 100
        assert stats.total_ms == 0.0

    def test_charge_adds_every_counter_in_counts_order(self):
        """One charge grows each counter by its field of ``counts``, and
        :meth:`IOStats.counts` reads them back in the same order."""
        stats = IOStats()
        counts = Counts(*range(1, len(Counts._fields) + 1))
        stats.charge(counts, buffer_hits=5)
        stats.charge(counts)
        assert stats.counts() == counts + counts
        assert stats.buffer_hits == 5


class TestSnapshotDelta:
    def test_delta_since(self):
        stats = IOStats()
        stats.charge(Counts(seq_page_reads=5))
        before = stats.snapshot()
        stats.charge(Counts(seq_page_reads=3, agg_updates=7))
        delta = stats.delta_since(before)
        assert delta.seq_page_reads == 3
        assert delta.agg_updates == 7
        # The original is unchanged by snapshotting.
        assert stats.seq_page_reads == 8

    def test_snapshot_is_independent(self):
        stats = IOStats()
        snap = stats.snapshot()
        stats.charge(Counts(rand_page_reads=4))
        assert snap.rand_page_reads == 0

    def test_delta_rejects_mismatched_rates(self):
        a = IOStats(rates=CostRates(seq_page_read_ms=1.0))
        b = IOStats(rates=CostRates(seq_page_read_ms=2.0))
        with pytest.raises(ValueError):
            a.delta_since(b)

    def test_reset(self):
        stats = IOStats()
        stats.charge(Counts(seq_page_reads=5, bitmap_word_ops=10))
        stats.reset()
        assert stats.total_ms == 0.0
        assert stats.seq_page_reads == 0


class TestRates:
    def test_replace_overrides_selected_fields(self):
        rates = DEFAULT_RATES.replace(rand_page_read_ms=99.0)
        assert rates.rand_page_read_ms == 99.0
        assert rates.seq_page_read_ms == DEFAULT_RATES.seq_page_read_ms

    def test_random_read_costlier_than_sequential(self):
        # The premise of every scan-vs-probe trade-off in the paper.
        assert DEFAULT_RATES.rand_page_read_ms > DEFAULT_RATES.seq_page_read_ms

    def test_as_dict_contains_derived_totals(self):
        stats = IOStats()
        stats.charge(Counts(seq_page_reads=2))
        d = stats.as_dict()
        assert d["seq_page_reads"] == 2
        assert d["total_ms"] == pytest.approx(stats.total_ms, abs=1e-3)


PROFILE = Path(__file__).resolve().parents[1] / "PROFILE_paper.json"
RATE_NAMES = [f.name for f in dataclasses.fields(CostRates)]

#: A count as the model and the operators state one: an integer, or a
#: float (estimated rows, pages) — never negative.
COUNT = st.one_of(st.integers(0, 10**12), st.floats(0.0, 1e15))
SMALL = st.integers(0, 70)
#: Rates are costs: the defaults, the committed profile's, or random
#: non-negative finite ones.  (With a negative rate a zero count's product
#: is ``-0.0``, and a zero total could differ from ``price``'s in sign.)
RATES = st.one_of(
    st.just(DEFAULT_RATES),
    st.just(CostRates.from_mapping(json.loads(PROFILE.read_text())["rates"])),
    st.lists(st.floats(0.0, 1e6), min_size=len(RATE_NAMES), max_size=len(RATE_NAMES))
    .map(lambda values: CostRates(**dict(zip(RATE_NAMES, values)))),
)


class TestPricedForms:
    """Each priced form equals ``CostRates.price`` of the statement it
    prices, bit for bit (``float.hex``)."""

    @settings(max_examples=300, deadline=None)
    @given(
        rates=RATES, rows_in=COUNT, probe_dims=SMALL, n_predicates=SMALL,
        rows_passed=COUNT,
        phase=st.none() | st.tuples(*[COUNT] * len(RATE_NAMES)).map(Counts._make),
    )
    def test_pipeline_ms(
        self, rates, rows_in, probe_dims, n_predicates, rows_passed, phase
    ):
        counts = pipeline_counts(rows_in, probe_dims, n_predicates, rows_passed)
        if phase is not None:
            counts = phase + counts
        priced = pipeline_ms(
            rates, rows_in, probe_dims, n_predicates, rows_passed, phase
        )
        assert priced.hex() == rates.price(counts).hex()

    @settings(max_examples=300, deadline=None)
    @given(
        rates=RATES, pages=COUNT, sequential=st.booleans(),
        entries=st.integers(0, 10**9), dim_pages=st.integers(0, 10**6),
        n_merged=SMALL, n_words=st.integers(0, 10**7),
    )
    def test_shared_ms(
        self, rates, pages, sequential, entries, dim_pages, n_merged, n_words
    ):
        counts = (
            read_counts(pages, sequential) + build_counts(entries, dim_pages)
            + merge_counts(n_merged, n_words)
        )
        priced = shared_ms(
            rates, pages, sequential, entries, dim_pages, n_merged, n_words
        )
        assert priced.hex() == rates.price(counts).hex()

    @settings(max_examples=200, deadline=None)
    @given(rates=RATES, n_members=SMALL, rows=COUNT)
    def test_routing_ms(self, rates, n_members, rows):
        priced = routing_ms(rates, n_members, rows)
        assert priced.hex() == rates.price(routing_counts(n_members, rows)).hex()


@lru_cache(maxsize=None)
def random_db(seed: int):
    return random_database(seed)


def trials_agree(db, queries, rates) -> None:
    """On every entry, each trial of a state grown one query at a time
    costs what ``plan_class`` of the query list does, which is the
    list-based oracle's costing, bit for bit; and each term's addends price
    to its statements'."""

    def model():
        return CostModel(
            db.schema, db.catalog, rates,
            statistics=db.table_statistics, dim_tables=db.dimension_tables,
        )

    grown = model()
    for entry in db.catalog.entries():
        state = ClassState(entry)
        for n, query in enumerate(queries, start=1):
            cost = grown.trial(state, query)
            listed = model().plan_class(entry, queries[:n])
            assert trial_shape(cost) == trial_shape(listed), (entry.name, n)
            assert shape(listed) == shape(from_scratch(model(), entry, queries[:n]))
            grown.extend(state, query)
        for query in queries:
            term = grown._term(entry, query)
            if not term.answerable:
                continue
            hash_units, index_units = term_units(grown, entry, query, term)
            assert term.hash_ms.hex() == rates.price(hash_units).hex()
            if term.indexable:
                assert term.index_ms.hex() == rates.price(index_units).hex()


class TestTrialsPriceTheirStatements:
    """A trial priced from floats is the class its statements price."""

    @settings(max_examples=40, deadline=None)
    @given(db_seed=st.integers(0, 7), seed=st.integers(0, 2**32 - 1), rates=RATES)
    def test_random_databases(self, db_seed, seed, rates):
        db = random_db(db_seed)
        rng = random.Random(seed)
        queries = [random_query(db.schema, rng) for _ in range(rng.randint(1, 6))]
        trials_agree(db, queries, rates)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), rates=RATES)
    def test_mdx_batches(self, paper_db, seed, n, rates):
        trials_agree(paper_db, mdx_batch(paper_db.schema, n, seed), rates)
