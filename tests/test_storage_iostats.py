"""Unit tests for the simulated cost clock."""

import pytest

from repro.storage.iostats import DEFAULT_RATES, CostRates, Counts, IOStats


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
