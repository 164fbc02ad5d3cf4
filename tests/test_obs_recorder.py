"""The flight recorder: a bounded thread-safe ring of events whose batch
traces round-trip through ``span_from_dict`` and whose JSON dump loads
back."""

from __future__ import annotations

import threading

import pytest

from repro.obs.export import span_from_dict, trace_to_dict
from repro.obs.recorder import FlightRecorder, load_flight_dump
from repro.obs.trace import Tracer


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
