"""Obs smoke (tier-1): fault-injected serving with full telemetry.

The acceptance scenario for the serving-plane telemetry layer:

* a fault-injected ``run_simulation`` where every served response
  is still verified byte-identical against the fault-free serial baseline
  (tracing and recording must never perturb results);
* the flight recorder retains the batches, the injected fault, and the
  retry — and its JSON dump round-trips: every recorded trace rebuilds
  through ``span_from_dict`` into a well-formed tree that re-exports to
  the same dict;
* at least five distinct ``serve.stage.*`` histograms are populated;
* the Prometheus text exposition parses back and the JSON snapshot agrees
  with ``MetricsRegistry.as_dict()`` exactly.
"""

from __future__ import annotations

import json

import pytest

from repro.faults import FaultPlan, InjectionPoint
from repro.obs.export import span_from_dict, trace_to_dict
from repro.obs.expose import (
    metrics_snapshot,
    parse_prometheus,
    render_prometheus,
    sanitize_name,
    snapshot_agrees,
)
from repro.obs.metrics import MetricsRegistry, set_default_registry
from repro.obs.recorder import load_flight_dump
from repro.serve import ServeConfig, SimulationConfig, run_simulation
from repro.workload.paper_schema import PaperConfig, build_paper_database

SCALE = 0.002
N_CLIENTS = 8
REQUESTS_PER_CLIENT = 2


@pytest.fixture(scope="module")
def smoke(request, tmp_path_factory):
    """One fault-injected run: (report, registry, dump path)."""
    registry = MetricsRegistry()
    previous = set_default_registry(registry)
    request.addfinalizer(lambda: set_default_registry(previous))
    db = build_paper_database(config=PaperConfig(scale=SCALE))
    dump_path = tmp_path_factory.mktemp("obs_smoke") / "flight.json"
    faults = FaultPlan(
        [InjectionPoint(site="operator.pipeline", nth=1)], seed=0
    )
    report = run_simulation(
        db,
        SimulationConfig(
            n_clients=N_CLIENTS,
            requests_per_client=REQUESTS_PER_CLIENT,
            overlap=0.75,
            seed=0,
            verify=True,
            faults=faults,
            serve=ServeConfig(
                window_ms=25.0,
                flight_recorder=32,
                flight_recorder_path=str(dump_path),
            ),
        ),
    )
    report.recorder.dump(dump_path)
    return report, registry, dump_path


class TestServedUnderTelemetry:
    def test_everything_served_and_verified(self, smoke):
        report, _, _ = smoke
        assert report.stats.n_served == N_CLIENTS * REQUESTS_PER_CLIENT
        assert report.n_verified == report.stats.n_served
        assert report.stats.n_quarantined == 0

    def test_fault_fired_and_was_recovered(self, smoke):
        report, _, _ = smoke
        assert report.n_faults_injected >= 1
        assert report.stats.n_retries >= 1


class TestFlightRecorderDump:
    def test_dump_loads_and_carries_the_story(self, smoke):
        report, _, dump_path = smoke
        loaded = load_flight_dump(dump_path)
        kinds = {e["kind"] for e in loaded["entries"]}
        assert {"batch", "fault", "retry"} <= kinds
        fault = next(e for e in loaded["entries"] if e["kind"] == "fault")
        assert fault["site"] == "operator.pipeline"

    def test_every_recorded_trace_round_trips(self, smoke):
        report, _, dump_path = smoke
        loaded = load_flight_dump(dump_path)
        traces = [
            e["trace"]
            for e in loaded["entries"]
            if e["kind"] == "batch" and e.get("trace") is not None
        ]
        assert traces, "no batch traces were recorded"
        for trace in traces:
            rebuilt = span_from_dict(trace)
            assert rebuilt.name == "serve.batch"
            assert trace_to_dict(rebuilt) == trace
            seen = set()
            for span in rebuilt.walk():
                assert span.span_id not in seen
                seen.add(span.span_id)
                for child in span.children:
                    assert child.parent_id == span.span_id

    def test_batch_entries_carry_stage_breakdowns(self, smoke):
        report, _, dump_path = smoke
        loaded = load_flight_dump(dump_path)
        batches = [e for e in loaded["entries"] if e["kind"] == "batch"]
        assert batches
        for entry in batches:
            assert entry["outcome"] in ("ok", "quarantined", "failed")
            stages = entry["stages"]
            assert "execute" in stages
            assert stages["execute"]["wall_ms"] >= 0.0


class TestStageHistograms:
    def test_at_least_five_stage_histograms_populated(self, smoke):
        _, registry, _ = smoke
        populated = [
            name
            for name, value in registry.as_dict().items()
            if name.startswith("serve.stage.")
            and isinstance(value, dict)
            and value["count"] > 0
        ]
        assert len(populated) >= 5, populated
        assert "serve.stage.retry_ms" in populated


class TestExpositionRoundTrips:
    def test_prometheus_text_parses_and_agrees(self, smoke):
        _, registry, _ = smoke
        text = render_prometheus(registry)
        parsed = parse_prometheus(text)
        flat = registry.as_dict()
        assert {sanitize_name(n) for n in flat} == set(parsed)
        for name, value in flat.items():
            entry = parsed[sanitize_name(name)]
            if isinstance(value, dict):
                assert entry["count"] == value["count"]
                assert entry["sum"] == pytest.approx(value["sum"])
            else:
                assert entry["value"] == pytest.approx(value)

    def test_json_snapshot_agrees_with_registry(self, smoke):
        _, registry, _ = smoke
        snapshot = metrics_snapshot(registry)
        assert snapshot_agrees(snapshot, registry.as_dict())
        # And it is strictly JSON (no NaN leaks from empty histograms).
        json.dumps(snapshot, allow_nan=False)
