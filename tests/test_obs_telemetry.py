"""Serving-plane telemetry integration: concurrency-correct tracing,
request-scoped stage breakdowns, and the service-attached flight recorder.

Satellite regressions pinned here:

* parallel (4-shard scatter and 4-worker class) execution under a trace
  yields one *well-formed* span tree — unique span ids, parent links that
  match tree edges, worker spans parented under the batch span in
  submission order, never interleaved into whatever span another thread
  had open;
* ``to_chrome_trace`` gives each worker thread its own tid lane;
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
from repro.obs.recorder import load_flight_dump
from repro.obs.trace import Tracer
from repro.schema.query import DimPredicate, GroupBy, GroupByQuery
from repro.serve import QueryService, ServeConfig, StageTiming, build_shards

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
    """Satellite: thread-local stacks keep parallel traces well-formed."""

    def test_sharded_scatter_trace_is_well_formed(self, db):
        shards = build_shards(db, 4)
        plan = db.optimize(queries(), "gg")
        with db.trace("sharded") as tracer:
            execute_plan(db, plan, shard_set=shards, n_workers=4)
        (root,) = tracer.roots
        assert_well_formed(root)
        scatter_spans = root.find_all("serve.scatter")
        assert scatter_spans
        tasks = root.find_all("shard.task")
        assert len(tasks) >= 4
        # Every shard task is parented under a scatter span — never under
        # whatever span another worker happened to have open.
        scatter_ids = {s.span_id for s in scatter_spans}
        for task in tasks:
            assert task.parent_id in scatter_ids
        # Scheduler-side links are created in grid submission order, so the
        # sibling order is deterministic regardless of completion order.
        for scatter in scatter_spans:
            grid = [
                (c.attrs["source"], c.attrs["shard"])
                for c in scatter.children
                if c.name == "shard.task"
            ]
            assert grid == sorted(grid, key=lambda cell: grid.index(cell))
            shards_per_source = {}
            for source, shard_id in grid:
                shards_per_source.setdefault(source, []).append(shard_id)
            for per_source in shards_per_source.values():
                assert per_source == sorted(per_source)

    def test_parallel_class_trace_is_well_formed(self, db):
        plan = db.optimize(queries(), "gg")
        with db.trace("parallel") as tracer:
            execute_plan(db, plan, n_workers=4)
        (root,) = tracer.roots
        assert_well_formed(root)
        (plan_span,) = root.find_all("execute.plan")
        class_spans = [
            c for c in plan_span.children if c.name == "execute.class"
        ]
        assert len(class_spans) == len(plan.classes)
        # Creation-order linking: children appear in plan order, not in
        # worker completion order.
        assert [c.attrs["source"] for c in class_spans] == [
            pc.source for pc in plan.classes
        ]

    def test_sharded_trace_round_trips(self, db):
        shards = build_shards(db, 2)
        plan = db.optimize(queries(), "gg")
        with db.trace("rt") as tracer:
            execute_plan(db, plan, shard_set=shards, n_workers=4)
        exported = trace_to_dict(tracer.roots[0])
        rebuilt = span_from_dict(exported)
        assert trace_to_dict(rebuilt) == exported
        assert_well_formed(rebuilt)


class TestChromeLanes:
    """Satellite: one tid lane per worker thread in Chrome exports."""

    def test_cross_thread_spans_get_distinct_tids(self):
        tracer = Tracer()
        with tracer.span("batch") as batch:
            spans = [
                tracer.span("work", parent=batch, index=i) for i in range(3)
            ]

            def run(span):
                with span:
                    pass

            threads = [
                threading.Thread(target=run, args=(s,), name=f"worker-{i}")
                for i, s in enumerate(spans)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        events = to_chrome_trace(tracer.roots[0])
        tids = {e["tid"] for e in events if e.get("ph") == "X"}
        assert len(tids) == 4  # main lane + three worker lanes
        names = {
            e["args"]["name"]
            for e in events
            if e.get("ph") == "M" and e.get("name") == "thread_name"
        }
        assert {"worker-0", "worker-1", "worker-2"} <= names

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
