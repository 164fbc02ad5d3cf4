"""Serve smoke: 32 concurrent simulated clients over the paper schema.

The acceptance scenario for the serve subsystem (part of tier-1 — it gates
the service -> ``Database.run_queries`` -> executor path every front door
shares):

* every response must match serial single-session execution of the same
  request (the harness verifies each one against the serial baseline);
* the whole run executes under paranoia — plans structurally validated,
  every executed result differentially checked against the brute-force
  reference evaluator, cache hits recomputed;
* the batched simulated cost must be **strictly lower** than executing the
  same requests serially with no cross-session sharing;
* the ``serve.*`` metrics must carry the coalesce ratio and the
  batch-size distribution.
"""

from __future__ import annotations

import pytest

from repro.engine.result_cache import attach_cache
from repro.obs.metrics import MetricsRegistry, set_default_registry
from repro.serve import ServeConfig, SimulationConfig, run_simulation
from repro.workload.paper_schema import PaperConfig, build_paper_database

SCALE = 0.002
N_CLIENTS = 32
REQUESTS_PER_CLIENT = 2
#: Split the preloaded burst into several batches so later batches can hit
#: the result cache and the batch-size histogram gets a distribution.
MAX_BATCH_REQUESTS = 16


@pytest.fixture(scope="module")
def smoke(request):
    """One simulated run shared by the lane: (report, metrics registry)."""
    registry = MetricsRegistry()
    previous = set_default_registry(registry)
    request.addfinalizer(lambda: set_default_registry(previous))
    db = build_paper_database(config=PaperConfig(scale=SCALE))
    db.paranoia = True
    attach_cache(db)
    report = run_simulation(
        db,
        SimulationConfig(
            n_clients=N_CLIENTS,
            requests_per_client=REQUESTS_PER_CLIENT,
            overlap=0.75,
            seed=0,
            verify=True,
            serve=ServeConfig(
                window_ms=25.0, max_batch_requests=MAX_BATCH_REQUESTS
            ),
        ),
    )
    return report, registry


class TestServeSmoke:
    def test_every_request_served_and_verified(self, smoke):
        report, _ = smoke
        assert report.n_clients == N_CLIENTS
        assert report.n_requests == N_CLIENTS * REQUESTS_PER_CLIENT
        assert report.stats.n_rejected == 0
        assert report.stats.n_timed_out == 0
        assert report.stats.n_served == report.n_requests
        # verify=True raised on any divergence; the count proves every
        # response was actually compared against the serial baseline.
        assert report.n_verified == report.n_requests

    def test_batched_cost_strictly_below_serial(self, smoke):
        report, _ = smoke
        assert report.serial_sim_ms > 0.0
        assert report.stats.sim_ms_total > 0.0
        assert report.stats.sim_ms_total < report.serial_sim_ms
        assert report.speedup > 1.0

    def test_sharing_actually_happened(self, smoke):
        report, _ = smoke
        assert report.stats.coalesce_ratio > 1.0
        assert report.stats.n_duplicates_eliminated > 0
        # Later batches of the burst are answered from the result cache.
        assert report.stats.n_cache_hits > 0

    def test_metrics_carry_coalesce_ratio_and_batch_distribution(self, smoke):
        report, registry = smoke
        assert registry.get("serve.coalesce_ratio").value == pytest.approx(
            report.stats.coalesce_ratio
        )
        assert registry.get("serve.coalesce_ratio").value > 1.0
        sizes = registry.get("serve.batch_requests")
        assert sizes.count == len(report.batch_sizes) >= 2
        assert sizes.max == max(report.batch_sizes)
        assert sizes.dump()["count"] == sizes.count
        assert registry.get("serve.batches").value == len(report.batch_sizes)
        assert (
            registry.get("serve.duplicates_eliminated").value
            == report.stats.n_duplicates_eliminated
        )
        assert registry.get("serve.requests_served").value == report.stats.n_served
        latency = registry.get("serve.request_latency_ms")
        assert latency.count == report.stats.n_served

    def test_report_renders(self, smoke):
        report, _ = smoke
        text = report.render()
        assert "coalesce ratio" in text
        assert "cheaper" in text


def test_bare_config_sizes_the_batch_cap_to_the_burst():
    """With no ``ServeConfig`` given, the whole pre-loaded burst — here more
    than ``ServeConfig``'s own 64-request cap — rides one batch."""
    db = build_paper_database(config=PaperConfig(scale=SCALE))
    report = run_simulation(
        db, SimulationConfig(n_clients=33, requests_per_client=2)
    )
    assert report.stats.n_served == report.n_requests == 66
    assert report.batch_sizes == [66]
