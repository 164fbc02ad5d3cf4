"""Trace export: JSON span trees (round trip), Chrome-trace events, file
output, and the flat metrics dump."""

import json

import pytest

from repro.obs.export import (
    span_from_dict,
    to_chrome_trace,
    trace_to_dict,
    write_chrome_trace,
    write_trace,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.storage.iostats import Counts, IOStats


class FakeClock:
    def __init__(self):
        self.now = 5.0  # non-zero epoch: exports must be relative

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def make_trace():
    """batch(1.0s) -> [optimize(0.25s), execute(0.5s) -> operator(0.4s)]."""
    clock = FakeClock()
    stats = IOStats()
    tracer = Tracer(stats=stats, clock=clock)
    with tracer.span("batch") as root:
        with tracer.span("optimize.gg", n_queries=2):
            clock.advance(0.25)
        with tracer.span("execute.plan"):
            clock.advance(0.05)
            with tracer.span("operator.shared_scan_hash", source="ABCD"):
                stats.charge(Counts(seq_page_reads=10, hash_probes=100))
                clock.advance(0.4)
            clock.advance(0.05)
        clock.advance(0.25)
    return root


class TestTraceToDict:
    def test_structure_and_relative_times(self):
        d = trace_to_dict(make_trace())
        assert d["name"] == "batch"
        assert d["start_ms"] == 0.0  # relative to root despite epoch 5.0s
        assert d["wall_ms"] == pytest.approx(1000.0)
        names = [c["name"] for c in d["children"]]
        assert names == ["optimize.gg", "execute.plan"]
        execute = d["children"][1]
        assert execute["start_ms"] == pytest.approx(250.0)
        operator = execute["children"][0]
        assert operator["start_ms"] == pytest.approx(300.0)
        assert operator["wall_ms"] == pytest.approx(400.0)

    def test_sim_counters_embedded(self):
        d = trace_to_dict(make_trace())
        operator = d["children"][1]["children"][0]
        assert operator["sim"]["seq_page_reads"] == 10
        assert operator["sim"]["hash_probes"] == 100
        assert operator["sim"]["total_ms"] > 0
        # The optimize span charged nothing.
        assert d["children"][0]["sim"]["total_ms"] == 0

    def test_json_serializable(self):
        json.dumps(trace_to_dict(make_trace()))


class TestRoundTrip:
    def test_dict_span_dict_round_trip(self):
        original = trace_to_dict(make_trace())
        rebuilt = span_from_dict(original)
        assert trace_to_dict(rebuilt) == original

    def test_round_trip_through_json_text(self):
        original = trace_to_dict(make_trace())
        decoded = json.loads(json.dumps(original))
        assert trace_to_dict(span_from_dict(decoded)) == original

    def test_rebuilt_spans_navigable(self):
        rebuilt = span_from_dict(trace_to_dict(make_trace()))
        op = rebuilt.find("operator.shared_scan_hash")
        assert op is not None
        assert op.attrs == {"source": "ABCD"}
        assert op.sim["seq_page_reads"] == 10


class TestChromeTrace:
    def test_one_complete_event_per_span(self):
        root = make_trace()
        events = to_chrome_trace(root)
        assert len(events) == len(list(root.walk()))
        assert all(e["ph"] == "X" for e in events)
        assert all({"name", "ts", "dur", "pid", "tid"} <= set(e) for e in events)

    def test_timestamps_microseconds_relative_to_root(self):
        events = {e["name"]: e for e in to_chrome_trace(make_trace())}
        assert events["batch"]["ts"] == 0.0
        assert events["batch"]["dur"] == pytest.approx(1_000_000.0)
        assert events["operator.shared_scan_hash"]["ts"] == pytest.approx(300_000.0)
        assert events["operator.shared_scan_hash"]["dur"] == pytest.approx(400_000.0)

    def test_args_carry_attrs_and_sim(self):
        events = {e["name"]: e for e in to_chrome_trace(make_trace())}
        op = events["operator.shared_scan_hash"]
        assert op["args"]["source"] == "ABCD"
        assert op["args"]["sim_total_ms"] > 0
        assert "sim_io_ms" in op["args"] and "sim_cpu_ms" in op["args"]


class TestCostClockTrack:
    def test_separate_pid_and_sim_durations(self):
        from repro.obs.export import to_cost_clock_track

        root = make_trace()
        events = {e["name"]: e for e in to_cost_clock_track(root, pid=2)}
        assert all(e["pid"] == 2 for e in events.values())
        op = events["operator.shared_scan_hash"]
        sim = root.find("operator.shared_scan_hash").sim
        # Duration is the span's simulated milliseconds (in µs), not wall.
        assert op["dur"] == pytest.approx(sim.total_ms * 1000.0, abs=0.01)
        assert op["args"]["wall_ms"] == pytest.approx(400.0)

    def test_children_nest_within_parent_cost_interval(self):
        from repro.obs.export import to_cost_clock_track

        events = {e["name"]: e for e in to_cost_clock_track(make_trace())}
        batch = events["batch"]
        for name, event in events.items():
            assert event["ts"] >= batch["ts"]
            assert event["ts"] + event["dur"] <= (
                batch["ts"] + batch["dur"] + 0.01
            )

    def test_untracked_span_spans_its_children(self):
        from repro.obs.export import to_cost_clock_track

        events = {e["name"]: e for e in to_cost_clock_track(make_trace())}
        # batch itself charged nothing directly; its cost extent is the
        # sum of its tracked descendants.
        operator = events["operator.shared_scan_hash"]
        assert events["execute.plan"]["dur"] >= operator["dur"]


class TestFileOutput:
    def test_write_trace(self, tmp_path):
        path = write_trace(make_trace(), tmp_path / "trace.json")
        data = json.loads(path.read_text())
        assert data["name"] == "batch"
        assert trace_to_dict(span_from_dict(data)) == data

    def test_write_chrome_trace(self, tmp_path):
        path = write_chrome_trace(make_trace(), tmp_path / "trace.chrome.json")
        data = json.loads(path.read_text())
        assert {e["name"] for e in data["traceEvents"]} >= {"batch", "execute.plan"}


def test_metrics_to_dict_matches_registry_dump():
    reg = MetricsRegistry()
    reg.counter("a").inc(3)
    reg.histogram("b").observe(1.0)
    flat = reg.as_dict()
    assert json.loads(json.dumps(flat)) == flat
    assert flat["a"] == 3 and flat["b"]["count"] == 1
