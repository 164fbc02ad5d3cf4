"""Serving-plane telemetry integration: thread-correct tracing,
request-scoped stage breakdowns, and the service-attached flight recorder.

Regressions pinned here:

* plan execution under a trace yields one *well-formed* span tree —
  unique span ids, parent links that match tree edges, class spans under
  the plan span in plan order;
* a service's scheduler thread opens its ``serve.batch`` as a root of its
  own, never inside the span another thread holds open on the same tracer;
* ``to_chrome_trace`` puts a tree on one tid lane;
* every ``ServeResponse`` carries its request trace id and a per-stage
  latency breakdown, and the service's flight recorder retains batch
  traces that round-trip through ``span_from_dict``.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.executor import execute_plan
from repro.obs.export import span_from_dict, to_chrome_trace, trace_to_dict
from repro.obs.metrics import default_registry
from repro.obs.recorder import FlightRecorder, load_flight_dump
from repro.obs.trace import Tracer
from repro.schema.query import DimPredicate, GroupBy, GroupByQuery
from repro.serve import QueryService, ServeConfig, StageTiming

from helpers import make_tiny_db


@pytest.fixture()
def db():
    return make_tiny_db(n_rows=400, index_tables=("XY",))


def queries():
    return [
        GroupByQuery(groupby=GroupBy((1, 1)), label="a"),
        GroupByQuery(
            groupby=GroupBy((0, 1)),
            predicates=(DimPredicate(1, 1, frozenset({0, 1})),),
            label="b",
        ),
        GroupByQuery(groupby=GroupBy((2, 0)), label="c"),
    ]


def assert_well_formed(root):
    """Tree-structural invariants every trace must satisfy."""
    seen_ids = set()
    for span in root.walk():
        assert span.span_id is not None
        assert span.span_id not in seen_ids, "duplicate span id"
        seen_ids.add(span.span_id)
        assert span.end_s is not None, f"span {span.name} never closed"
        for child in span.children:
            assert child.parent_id == span.span_id, (
                f"{child.name} claims parent {child.parent_id}, "
                f"tree says {span.span_id}"
            )


class TestParallelTraceTree:
    """A plan's class spans nest under its plan span, in plan order."""

    def test_parallel_class_trace_is_well_formed(self, db):
        plan = db.optimize(queries(), "gg")
        with db.trace("plan") as tracer:
            execute_plan(db, plan)
        (root,) = tracer.roots
        assert_well_formed(root)
        (plan_span,) = root.find_all("execute.plan")
        class_spans = [
            c for c in plan_span.children if c.name == "execute.class"
        ]
        assert len(class_spans) == len(plan.classes)
        assert [c.attrs["source"] for c in class_spans] == [
            pc.source for pc in plan.classes
        ]
        exported = trace_to_dict(root)
        rebuilt = span_from_dict(exported)
        assert trace_to_dict(rebuilt) == exported
        assert_well_formed(rebuilt)


class TestSchedulerThreadTrace:
    """Why the tracer keeps a span stack per thread."""

    def test_serve_batch_is_a_root_of_the_scheduler_thread(self, db):
        query = GroupByQuery(groupby=GroupBy((1, 1)), label="a")
        with db.trace("main") as tracer:
            with QueryService(db, ServeConfig(window_ms=1.0)) as service:
                service.submit([query]).result(timeout=30)
        main = threading.current_thread().name
        (root,) = [r for r in tracer.roots if r.thread == main]
        assert root.name == "main"
        assert not [s for s in root.walk() if s.name.startswith("serve.")]
        (batch,) = [r for r in tracer.roots if r.name == "serve.batch"]
        assert batch.thread == "repro-serve-scheduler"
        assert_well_formed(batch)
        assert batch.find("execute.plan") is not None


class TestChromeLanes:
    def test_single_thread_trace_has_no_metadata_lane(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        events = to_chrome_trace(tracer.roots[0])
        assert all(e.get("ph") != "M" for e in events)
        assert len({e["tid"] for e in events}) == 1


class TestServeTelemetry:
    def make_query(self, member):
        return GroupByQuery(
            groupby=GroupBy((1, 1)),
            predicates=(DimPredicate(0, 0, frozenset({member})),),
            label=f"m{member}",
        )

    def test_response_carries_trace_id_and_stages(self, db):
        with QueryService(db, ServeConfig(window_ms=1.0)) as service:
            response = service.submit([self.make_query(0)]).result(timeout=30)
        assert response.trace_id == "req-000001"
        assert response.batch_trace_id is not None
        assert response.batch_trace_id.startswith("trace-")
        for stage in ("queued", "coalesce", "plan", "execute", "gather"):
            assert stage in response.stages, f"missing stage {stage!r}"
            timing = response.stages[stage]
            assert isinstance(timing, StageTiming)
            assert timing.wall_ms >= 0.0
        assert response.stages["execute"].sim_ms > 0.0
        breakdown = response.stage_breakdown()
        assert "execute" in breakdown and "sim-ms" in breakdown

    def test_future_has_trace_id_before_resolution(self, db):
        service = QueryService(db, ServeConfig(window_ms=1.0))
        future = service.submit([self.make_query(0)])
        assert future.trace_id == "req-000001"
        service.stop(drain=False)

    def test_stage_histograms_populated(self, db):
        registry = default_registry()
        before = {
            name: registry.histogram(f"serve.stage.{name}_ms").dump()["count"]
            for name in ("queued", "coalesce", "plan", "execute", "gather")
        }
        with QueryService(db, ServeConfig(window_ms=1.0)) as service:
            service.submit([self.make_query(0)]).result(timeout=30)
        for name, count in before.items():
            after = registry.histogram(f"serve.stage.{name}_ms").dump()["count"]
            assert after > count, f"serve.stage.{name}_ms not observed"

    def test_recorder_retains_round_trippable_batch_trace(self, db):
        with QueryService(db, ServeConfig(window_ms=1.0)) as service:
            service.submit([self.make_query(0)]).result(timeout=30)
            recorder = service.recorder
        assert recorder is not None
        assert db.flight_recorder() is recorder
        (batch_entry,) = recorder.entries("batch")
        assert batch_entry["outcome"] == "ok"
        assert batch_entry["n_requests"] == 1
        assert "execute" in batch_entry["stages"]
        rebuilt = span_from_dict(batch_entry["trace"])
        assert rebuilt.name == "serve.batch"
        assert rebuilt.trace_id == batch_entry["trace"]["trace_id"]
        assert trace_to_dict(rebuilt) == batch_entry["trace"]
        # The per-batch tracer is uninstalled after every batch.
        assert not db.tracer.enabled

    def test_disabled_recorder_disables_tracing_and_ids(self, db):
        config = ServeConfig(window_ms=1.0, flight_recorder=0)
        with QueryService(db, config) as service:
            response = service.submit([self.make_query(0)]).result(timeout=30)
            assert service.recorder is None
        assert db.flight_recorder() is None
        assert response.batch_trace_id is None
        assert response.trace_id == "req-000001"
        # Stage breakdowns survive without tracing.
        assert "execute" in response.stages

    def test_batch_failure_records_and_auto_dumps(self, db, tmp_path):
        dump_path = tmp_path / "flight.json"
        config = ServeConfig(
            window_ms=1.0, flight_recorder_path=str(dump_path)
        )
        boom = RuntimeError("optimizer exploded")

        def broken_optimize(*args, **kwargs):
            raise boom

        db.optimize = broken_optimize
        with QueryService(db, config) as service:
            future = service.submit([self.make_query(0)])
            with pytest.raises(RuntimeError, match="optimizer exploded"):
                future.result(timeout=30)
            kinds = [e["kind"] for e in service.recorder.entries()]
        assert "batch_failure" in kinds
        assert "batch" in kinds  # the failed batch's entry, outcome="failed"
        (failed,) = [
            e for e in service.recorder.entries("batch")
        ]
        assert failed["outcome"] == "failed"
        loaded = load_flight_dump(dump_path)
        assert any(
            e["kind"] == "batch_failure"
            and e["error_type"] == "RuntimeError"
            for e in loaded["entries"]
        )

    def test_config_rejects_negative_capacity(self):
        with pytest.raises(ValueError, match="flight_recorder"):
            ServeConfig(flight_recorder=-1)


class TestStrictFlightDump:
    """``load_flight_dump`` refuses anything but a dump's shape with a
    ``ValueError`` naming the file."""

    def dump(self, tmp_path):
        recorder = FlightRecorder(4)
        recorder.record("retry", batch_id=1, attempt=2)
        return recorder.dump(tmp_path / "flight.json")

    def test_round_trip(self, tmp_path):
        assert load_flight_dump(self.dump(tmp_path))["entries"][0]["seq"] == 1

    @pytest.mark.parametrize(
        "document",
        [
            "[1, 2]",
            '{"capacity": 4, "n_recorded": 1',
            '{"capacity": "4", "n_recorded": 1, "entries": []}',
            '{"capacity": 4, "n_recorded": true, "entries": []}',
            '{"capacity": 4, "n_recorded": 1, "entries": {}}',
            '{"capacity": 4, "n_recorded": 1}',
            '{"capacity": 4, "n_recorded": 1, "entries": [7]}',
            '{"capacity": 4, "n_recorded": 1, "entries": [{"seq": "1", "kind": "x"}]}',
            '{"capacity": 4, "n_recorded": 1, "entries": [{"seq": 1, "kind": 2}]}',
            '{"capacity": 4, "n_recorded": 1, "entries": [{"kind": "x"}]}',
        ],
    )
    def test_bad_shapes_are_refused(self, tmp_path, document):
        path = tmp_path / "bad.json"
        path.write_text(document)
        with pytest.raises(ValueError, match="bad.json"):
            load_flight_dump(path)

    def test_truncated_and_missing(self, tmp_path):
        path = self.dump(tmp_path)
        path.write_text(path.read_text()[:-20])
        with pytest.raises(ValueError, match="flight.json"):
            load_flight_dump(path)
        with pytest.raises(ValueError, match="absent.json"):
            load_flight_dump(tmp_path / "absent.json")
