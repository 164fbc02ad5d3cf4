"""Span nesting, timing with a fake clock, cost-clock deltas, and the
zero-overhead no-op tracer path."""

import pytest

from repro.obs.trace import NULL_TRACER, NullTracer, Span, Tracer
from repro.storage.iostats import Counts, IOStats


class FakeClock:
    """Deterministic monotonic clock: advances only when told."""

    def __init__(self, start: float = 0.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestSpanNesting:
    def test_children_nest_under_open_span(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("a"):
            with tracer.span("b"):
                with tracer.span("c"):
                    pass
            with tracer.span("d"):
                pass
        (root,) = tracer.roots
        assert root.name == "a"
        assert [c.name for c in root.children] == ["b", "d"]
        assert [c.name for c in root.children[0].children] == ["c"]

    def test_sibling_roots(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [s.name for s in tracer.roots] == ["first", "second"]

    def test_current_tracks_stack(self):
        tracer = Tracer(clock=FakeClock())
        assert tracer.current is None
        with tracer.span("outer") as outer:
            assert tracer.current is outer
            with tracer.span("inner") as inner:
                assert tracer.current is inner
            assert tracer.current is outer
        assert tracer.current is None

    def test_walk_find_and_find_all(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("root"):
            with tracer.span("x"):
                pass
            with tracer.span("x"):
                with tracer.span("y"):
                    pass
        root = tracer.roots[0]
        assert [s.name for s in root.walk()] == ["root", "x", "x", "y"]
        assert root.find("y").name == "y"
        assert root.find("missing") is None
        assert len(root.find_all("x")) == 2

    def test_span_closed_on_exception(self):
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(RuntimeError, match="boom"):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise RuntimeError("boom")
        assert tracer.current is None
        root = tracer.roots[0]
        assert root.end_s is not None
        assert root.children[0].end_s is not None


class TestSpanTiming:
    def test_wall_time_from_injected_clock(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("outer"):
            clock.advance(0.25)
            with tracer.span("inner"):
                clock.advance(0.5)
            clock.advance(0.25)
        outer = tracer.roots[0]
        inner = outer.children[0]
        assert outer.wall_s == pytest.approx(1.0)
        assert outer.wall_ms == pytest.approx(1000.0)
        assert inner.wall_s == pytest.approx(0.5)
        assert inner.start_s == pytest.approx(0.25)

    def test_open_span_reports_zero_wall(self):
        tracer = Tracer(clock=FakeClock())
        span = tracer.span("open")
        span.__enter__()
        assert span.wall_s == 0.0

    def test_attrs_at_creation_and_via_set(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("s", source="ABCD") as span:
            span.set("n_queries", 4).set("phase", "scan")
        assert span.attrs == {"source": "ABCD", "n_queries": 4, "phase": "scan"}


class TestSimDeltas:
    def test_span_captures_only_its_window(self):
        stats = IOStats()
        tracer = Tracer(stats=stats, clock=FakeClock())
        stats.charge(Counts(seq_page_reads=100))  # before any span: not attributed
        with tracer.span("outer"):
            stats.charge(Counts(seq_page_reads=10))
            with tracer.span("inner"):
                stats.charge(Counts(rand_page_reads=5))
            stats.charge(Counts(seq_page_reads=1))
        outer = tracer.roots[0]
        inner = outer.children[0]
        assert outer.sim.seq_page_reads == 11
        assert outer.sim.rand_page_reads == 5
        assert inner.sim.seq_page_reads == 0
        assert inner.sim.rand_page_reads == 5
        assert outer.sim_ms == pytest.approx(outer.sim.total_ms)

    def test_no_stats_means_no_sim(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("s") as span:
            pass
        assert span.sim is None
        assert span.sim_ms == 0.0


class TestNullTracer:
    def test_span_is_shared_singleton(self):
        # Zero-overhead guard: the no-op path allocates nothing per call.
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b")
        assert NULL_TRACER.span("a") is NullTracer().span("c")

    def test_noop_span_supports_full_protocol(self):
        with NULL_TRACER.span("anything", k=1) as span:
            span.set("x", 2)
        assert span.wall_ms == 0.0
        assert span.sim_ms == 0.0
        assert NULL_TRACER.roots == []

    def test_enabled_flags(self):
        assert Tracer().enabled is True
        assert NULL_TRACER.enabled is False


class TestOutOfOrderClose:
    def test_mismatched_exit_raises(self):
        tracer = Tracer(clock=FakeClock())
        outer = tracer.span("outer")
        inner = tracer.span("inner")
        outer.__enter__()
        inner.__enter__()
        with pytest.raises(RuntimeError, match="out of order"):
            outer.__exit__(None, None, None)


def test_span_is_exported_type():
    tracer = Tracer(clock=FakeClock())
    with tracer.span("s") as span:
        pass
    assert isinstance(span, Span)
