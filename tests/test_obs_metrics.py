"""Metrics registry: counters/gauges/histograms, get-or-create semantics,
double-registration errors, the swappable default registry, and the
ledgers whose fields declare their counters."""

import dataclasses
import inspect
from pathlib import Path

import pytest

import repro
from repro.engine.result_cache import CacheStats
from repro.obs.metrics import (
    Counter,
    DuplicateMetricError,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_registry,
    set_default_registry,
)
from repro.serve import ServiceStats

DOCS = Path(__file__).resolve().parent.parent / "docs"


class TestCounter:
    def test_inc(self):
        c = Counter("events")
        c.inc()
        c.inc(41)
        assert c.value == 42
        assert c.dump() == 42

    def test_cannot_decrease(self):
        with pytest.raises(ValueError, match="cannot decrease"):
            Counter("events").inc(-1)

    def test_reset(self):
        c = Counter("events")
        c.inc(5)
        c.reset()
        assert c.value == 0


class TestGauge:
    def test_set_and_add(self):
        g = Gauge("depth")
        g.set(10.0)
        g.add(-3.0)
        assert g.value == 7.0
        assert g.dump() == 7.0


class TestHistogram:
    def test_summary(self):
        h = Histogram("latency")
        for v in (1.0, 3.0, 2.0):
            h.observe(v)
        assert h.count == 3
        assert h.total == 6.0
        assert h.min == 1.0
        assert h.max == 3.0
        assert h.mean == pytest.approx(2.0)
        assert h.dump() == {
            "count": 3, "sum": 6.0, "min": 1.0, "max": 3.0, "mean": 2.0,
            "p50": 2.0, "p95": pytest.approx(2.9), "p99": pytest.approx(2.98),
        }

    def test_empty(self):
        h = Histogram("latency")
        assert h.mean == 0.0
        assert h.dump()["min"] is None
        assert h.dump()["p50"] is None
        assert h.quantile(0.95) is None

    def test_quantiles_exact_below_sample_cap(self):
        h = Histogram("latency")
        for v in range(1, 101):  # 1..100
            h.observe(float(v))
        assert h.quantile(0.0) == 1.0
        assert h.quantile(1.0) == 100.0
        assert h.quantile(0.5) == pytest.approx(50.5)
        assert h.quantile(0.95) == pytest.approx(95.05)
        assert h.quantile(0.99) == pytest.approx(99.01)

    def test_quantile_bounds_checked(self):
        h = Histogram("latency")
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_decimation_is_deterministic_and_bounded(self):
        a = Histogram("x", max_samples=64)
        b = Histogram("x", max_samples=64)
        for v in range(1000):
            a.observe(float(v))
            b.observe(float(v))
        assert a.n_samples <= 64
        assert a.quantile(0.5) == b.quantile(0.5)
        # The decimated median still tracks the true median.
        assert a.quantile(0.5) == pytest.approx(499.5, abs=50)
        assert a.count == 1000 and a.max == 999.0

    def test_reset_clears_samples(self):
        h = Histogram("latency")
        h.observe(5.0)
        h.reset()
        assert h.n_samples == 0
        assert h.quantile(0.5) is None


class TestRegistry:
    def test_get_or_create_returns_same_instance(self):
        reg = MetricsRegistry()
        a = reg.counter("buffer.hits", "help text")
        b = reg.counter("buffer.hits")
        assert a is b
        a.inc()
        assert reg.get("buffer.hits").value == 1

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(DuplicateMetricError, match="registered as a counter"):
            reg.gauge("x")
        with pytest.raises(DuplicateMetricError):
            reg.histogram("x")

    def test_register_duplicate_raises(self):
        reg = MetricsRegistry()
        reg.register(Counter("x"))
        with pytest.raises(DuplicateMetricError, match="already registered"):
            reg.register(Gauge("x"))

    def test_get_unknown_raises(self):
        with pytest.raises(KeyError):
            MetricsRegistry().get("nope")

    def test_contains_len_iter_names(self):
        reg = MetricsRegistry()
        reg.counter("b")
        reg.gauge("a")
        assert "a" in reg and "c" not in reg
        assert len(reg) == 2
        assert reg.names() == ["a", "b"]
        assert [m.name for m in reg] == ["a", "b"]

    def test_as_dict_flat_dump(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.gauge("g").set(1.5)
        reg.histogram("h").observe(4.0)
        dump = reg.as_dict()
        assert dump["c"] == 2
        assert dump["g"] == 1.5
        assert dump["h"]["count"] == 1

    def test_reset_keeps_registrations(self):
        reg = MetricsRegistry()
        c = reg.counter("c")
        c.inc(9)
        reg.reset()
        assert reg.get("c") is c
        assert c.value == 0


class TestDefaultRegistry:
    def test_swap_and_restore(self):
        fresh = MetricsRegistry()
        previous = set_default_registry(fresh)
        try:
            assert default_registry() is fresh
            default_registry().counter("swapped").inc()
            assert fresh.get("swapped").value == 1
        finally:
            set_default_registry(previous)
        assert default_registry() is previous

    def test_components_register_against_default(self):
        from repro.storage.buffer import BufferPool
        from repro.storage.iostats import IOStats
        from repro.storage.page import DEFAULT_PAGE_SIZE
        from repro.storage.table import HeapTable

        fresh = MetricsRegistry()
        previous = set_default_registry(fresh)
        try:
            stats = IOStats()
            pool = BufferPool(stats, capacity_pages=4)
            table = HeapTable("t", ["k", "m"], page_size=DEFAULT_PAGE_SIZE)
            for i in range(10):
                table.append((i, float(i)))
            for _page in table.scan_pages(pool):
                pass
            for _page in table.scan_pages(pool):  # warm: all hits
                pass
            assert fresh.get("table.scans").value == 2
            assert fresh.get("buffer.misses").value == table.n_pages
            assert fresh.get("buffer.hits").value == table.n_pages
        finally:
            set_default_registry(previous)


@pytest.fixture()
def fresh_registry():
    fresh = MetricsRegistry()
    previous = set_default_registry(fresh)
    try:
        yield fresh
    finally:
        set_default_registry(previous)


class TestLedger:
    @pytest.mark.parametrize(
        "ledger, n_counted", [(ServiceStats, 13), (CacheStats, 4)]
    )
    def test_each_counter_is_declared_once(
        self, ledger, n_counted, fresh_registry
    ):
        """A counted field registers its counter; the counter is documented
        by its full name; and no other line under src/ names it."""
        counted = [
            f for f in dataclasses.fields(ledger) if "counter" in f.metadata
        ]
        assert len(counted) == n_counted
        stats = ledger()
        docs = (DOCS / "observability.md").read_text()
        src = Path(repro.__file__).parent
        bodies = {path: path.read_text() for path in src.rglob("*.py")}
        home = Path(inspect.getfile(ledger))
        for f in counted:
            name, text = f.metadata["counter"]
            counter = fresh_registry.get(name)
            assert isinstance(counter, Counter) and counter.help == text
            stats.add(**{f.name: 2})
            assert getattr(stats, f.name) == counter.value == 2
            assert f"`{name}`" in docs, name
            assert {
                path: body.count(name)
                for path, body in bodies.items()
                if name in body
            } == {home: 1}, name

    def test_add_is_all_or_nothing_and_snapshots_are_detached(
        self, fresh_registry
    ):
        stats = ServiceStats()
        stats.add(n_served=3, sim_ms_total=1.5)
        with pytest.raises(ValueError):
            stats.add(n_served=1, n_batches=-1)
        snap = stats.snapshot()
        snap.add(n_served=10)
        assert (stats.n_served, stats.n_batches, stats.sim_ms_total) == (
            3, 0, 1.5
        )
        assert fresh_registry.get("serve.requests_served").value == 3
        assert snap.n_served == 13
