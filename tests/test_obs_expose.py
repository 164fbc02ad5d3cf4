"""Metrics exposition (Prometheus text + JSON snapshot), the flight
recorder ring, and registry atomicity under concurrent writers.

The exposition contract: ``render_prometheus`` output parses back via
``parse_prometheus`` and agrees with ``MetricsRegistry.as_dict()``; empty
histograms render ``NaN`` placeholders in text and ``null`` in JSON, never
crashing a renderer.  The recorder contract: a bounded thread-safe ring
whose batch traces round-trip through ``span_from_dict``.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.obs.export import span_from_dict, trace_to_dict
from repro.obs.expose import (
    metrics_snapshot,
    parse_prometheus,
    render_prometheus,
    sanitize_name,
    snapshot_agrees,
    write_metrics_json,
    write_prometheus,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import FlightRecorder, load_flight_dump
from repro.obs.trace import Tracer


@pytest.fixture()
def registry():
    reg = MetricsRegistry()
    reg.counter("serve.requests_served", "requests answered").inc(7)
    reg.gauge("serve.queue_depth", "requests waiting").set(3.5)
    hist = reg.histogram("serve.stage.execute_ms", "execution wall ms")
    for v in (1.0, 2.0, 3.0, 4.0):
        hist.observe(v)
    reg.histogram("serve.stage.degrade_ms", "never observed")
    return reg


class TestSanitizeName:
    def test_dots_become_underscores(self):
        assert sanitize_name("serve.stage.execute_ms") == "serve_stage_execute_ms"

    def test_leading_digit_gets_prefixed(self):
        assert sanitize_name("1weird")[0] in "_:" or sanitize_name("1weird")[0].isalpha()

    def test_legal_names_pass_through(self):
        assert sanitize_name("already_legal:name") == "already_legal:name"


class TestRenderPrometheus:
    def test_all_metrics_render_with_help_and_type(self, registry):
        text = render_prometheus(registry)
        assert "# HELP serve_requests_served requests answered" in text
        assert "# TYPE serve_requests_served counter" in text
        assert "# TYPE serve_queue_depth gauge" in text
        assert "# TYPE serve_stage_execute_ms summary" in text
        assert "serve_requests_served 7" in text

    def test_histogram_renders_quantiles_sum_count(self, registry):
        text = render_prometheus(registry)
        assert 'serve_stage_execute_ms{quantile="0.5"}' in text
        assert "serve_stage_execute_ms_sum 10.0" in text
        assert "serve_stage_execute_ms_count 4" in text

    def test_empty_histogram_renders_nan_not_crash(self, registry):
        text = render_prometheus(registry)
        assert 'serve_stage_degrade_ms{quantile="0.5"} NaN' in text
        assert "serve_stage_degrade_ms_count 0" in text

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""

    def test_deterministic_and_sorted(self, registry):
        assert render_prometheus(registry) == render_prometheus(registry)
        names = [
            line.split()[2]
            for line in render_prometheus(registry).splitlines()
            if line.startswith("# TYPE")
        ]
        assert names == sorted(names)


class TestParsePrometheus:
    def test_round_trip_agrees_with_registry(self, registry):
        parsed = parse_prometheus(render_prometheus(registry))
        flat = registry.as_dict()
        assert parsed["serve_requests_served"]["value"] == flat["serve.requests_served"]
        assert parsed["serve_queue_depth"]["value"] == flat["serve.queue_depth"]
        summary = parsed["serve_stage_execute_ms"]
        dump = flat["serve.stage.execute_ms"]
        assert summary["sum"] == dump["sum"]
        assert summary["count"] == dump["count"]
        assert summary["p50"] == dump["p50"]
        assert summary["p95"] == dump["p95"]

    def test_nan_parses_to_none(self, registry):
        parsed = parse_prometheus(render_prometheus(registry))
        empty = parsed["serve_stage_degrade_ms"]
        assert empty["p50"] is None
        assert empty["count"] == 0

    def test_rejects_garbage_lines(self):
        with pytest.raises(ValueError, match="unparseable"):
            parse_prometheus("this is not { an exposition line\n")


class TestJsonSnapshot:
    def test_snapshot_agrees_with_flat_dump(self, registry):
        assert snapshot_agrees(metrics_snapshot(registry), registry.as_dict())

    def test_snapshot_disagrees_after_perturbation(self, registry):
        snapshot = metrics_snapshot(registry)
        registry.counter("serve.requests_served").inc()
        assert not snapshot_agrees(snapshot, registry.as_dict())

    def test_snapshot_is_json_safe_without_nan(self, registry):
        # Empty-histogram quantiles must serialize as null, never NaN.
        text = json.dumps(metrics_snapshot(registry), allow_nan=False)
        entry = next(
            e
            for e in json.loads(text)["metrics"]
            if e["name"] == "serve.stage.degrade_ms"
        )
        assert entry["summary"]["p50"] is None

    def test_snapshot_carries_both_names(self, registry):
        entry = metrics_snapshot(registry)["metrics"][0]
        assert "name" in entry and "prometheus_name" in entry
        assert entry["prometheus_name"] == sanitize_name(entry["name"])

    def test_file_writers_round_trip(self, registry, tmp_path):
        prom = write_prometheus(tmp_path / "metrics.prom", registry)
        parsed = parse_prometheus(prom.read_text())
        assert "serve_stage_execute_ms" in parsed
        js = write_metrics_json(tmp_path / "metrics.json", registry)
        loaded = json.loads(js.read_text())
        assert snapshot_agrees(loaded, registry.as_dict())


class TestMetricsConcurrency:
    """Satellite: no torn reads or lost samples under concurrent writers."""

    def test_histogram_concurrent_observers_lose_nothing(self):
        reg = MetricsRegistry()
        hist = reg.histogram("stress.hist", "concurrent observes")
        value, per_thread, n_threads = 2.5, 500, 8
        start = threading.Barrier(n_threads)

        def writer():
            start.wait()
            for _ in range(per_thread):
                hist.observe(value)

        threads = [threading.Thread(target=writer) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        dump = hist.dump()
        assert dump["count"] == n_threads * per_thread
        assert dump["sum"] == n_threads * per_thread * value
        assert dump["min"] == dump["max"] == value
        assert dump["p50"] == dump["p99"] == value

    def test_dump_is_internally_consistent_while_writing(self):
        """A dump taken mid-write must be one atomic snapshot: with every
        sample equal to ``value``, sum == count * value always holds."""
        reg = MetricsRegistry()
        hist = reg.histogram("stress.torn", "torn-read probe")
        value = 3.0
        stop = threading.Event()
        errors = []

        def writer():
            while not stop.is_set():
                hist.observe(value)

        def reader():
            while not stop.is_set():
                dump = hist.dump()
                if dump["sum"] != dump["count"] * value:
                    errors.append(dump)
                as_dict = reg.as_dict()["stress.torn"]
                if as_dict["sum"] != as_dict["count"] * value:
                    errors.append(as_dict)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        threads += [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        timer = threading.Timer(0.3, stop.set)
        timer.start()
        for t in threads:
            t.join()
        timer.cancel()
        assert not errors

    def test_counter_concurrent_incs_lose_nothing(self):
        reg = MetricsRegistry()
        counter = reg.counter("stress.counter", "concurrent incs")
        n_threads, per_thread = 8, 2000

        def writer():
            for _ in range(per_thread):
                counter.inc()

        threads = [threading.Thread(target=writer) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.dump() == n_threads * per_thread


class TestFlightRecorder:
    def test_ring_is_bounded_but_seq_keeps_counting(self):
        recorder = FlightRecorder(capacity=4)
        for i in range(10):
            recorder.record("fault", index=i)
        assert len(recorder) == 4
        assert recorder.n_recorded == 10
        assert [e["seq"] for e in recorder.entries()] == [7, 8, 9, 10]
        assert [e["index"] for e in recorder.entries()] == [6, 7, 8, 9]

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_kind_filter(self):
        recorder = FlightRecorder()
        recorder.record("fault", site="storage.scan")
        recorder.record_batch(None, batch_id=1)
        recorder.record("retry", attempt=2)
        assert [e["kind"] for e in recorder.entries("fault")] == ["fault"]
        assert len(recorder.entries("batch")) == 1

    def test_batch_trace_round_trips_through_span_from_dict(self):
        tracer = Tracer()
        with tracer.span("serve.batch", batch_id=9) as span:
            with tracer.span("execute.plan"):
                pass
        recorder = FlightRecorder()
        recorder.record_batch(span, batch_id=9, outcome="ok")
        (trace,) = recorder.traces()
        rebuilt = span_from_dict(trace)
        assert rebuilt.name == "serve.batch"
        assert [s.name for s in rebuilt.walk()] == ["serve.batch", "execute.plan"]
        assert trace_to_dict(rebuilt) == trace

    def test_untraced_batches_are_skipped_by_traces(self):
        recorder = FlightRecorder()
        recorder.record_batch(None, batch_id=1)
        assert recorder.traces() == []
        assert len(recorder.entries("batch")) == 1

    def test_dump_and_load_round_trip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("serve.batch") as span:
            pass
        recorder = FlightRecorder(capacity=8)
        recorder.record("fault", site="operator.pipeline", point="p1")
        recorder.record_batch(span, batch_id=3, outcome="ok")
        path = recorder.dump(tmp_path / "flight.json")
        loaded = load_flight_dump(path)
        assert loaded["capacity"] == 8
        assert loaded["n_recorded"] == 2
        kinds = [e["kind"] for e in loaded["entries"]]
        assert kinds == ["fault", "batch"]
        rebuilt = span_from_dict(loaded["entries"][1]["trace"])
        assert rebuilt.name == "serve.batch"

    def test_concurrent_recording_drops_nothing(self):
        recorder = FlightRecorder(capacity=10_000)
        n_threads, per_thread = 8, 250
        start = threading.Barrier(n_threads)

        def writer(tid):
            start.wait()
            for i in range(per_thread):
                recorder.record("fault", tid=tid, i=i)

        threads = [
            threading.Thread(target=writer, args=(t,)) for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert recorder.n_recorded == n_threads * per_thread
        seqs = [e["seq"] for e in recorder.entries()]
        assert len(set(seqs)) == len(seqs) == n_threads * per_thread

    def test_clear_keeps_seq_monotonic(self):
        recorder = FlightRecorder()
        recorder.record("fault")
        recorder.clear()
        assert len(recorder) == 0
        entry = recorder.record("fault")
        assert entry["seq"] == 2
