"""Shard smoke: sharded serve simulation over the paper schema.

The acceptance scenario for scatter-gather execution (part of tier-1):

* ``repro serve --simulate --shards 4`` equivalent: every response of a
  concurrent burst executed over 4 hash partitions must match serial
  single-session execution on the *unsharded* database (``verify=True``
  compares each one);
* the whole run executes under paranoia — merged (gathered) results are
  additionally differentially checked against the brute-force reference
  evaluator over the full, unpartitioned data;
* per-shard ``shard.*`` metrics are emitted alongside the ``serve.*``
  family;
* killing one shard mid-run with a fault plan degrades-and-recovers: the
  batch is still fully served and verified.
"""

from __future__ import annotations

import pytest

from repro.engine.result_cache import attach_cache
from repro.faults import FaultPlan, InjectionPoint
from repro.obs.metrics import MetricsRegistry, set_default_registry
from repro.serve import ServeConfig, SimulationConfig, run_simulation
from repro.workload.paper_schema import PaperConfig, build_paper_database

SCALE = 0.002
N_SHARDS = 4
N_CLIENTS = 8
REQUESTS_PER_CLIENT = 2
MAX_BATCH_REQUESTS = 8


def simulate(n_shards, fault_plan=None, n_clients=N_CLIENTS):
    """One sharded run under a private metrics registry."""
    registry = MetricsRegistry()
    previous = set_default_registry(registry)
    try:
        db = build_paper_database(config=PaperConfig(scale=SCALE))
        db.paranoia = True
        attach_cache(db)
        if fault_plan is not None:
            db.arm_faults(fault_plan)
        report = run_simulation(
            db,
            SimulationConfig(
                n_clients=n_clients,
                requests_per_client=REQUESTS_PER_CLIENT,
                overlap=0.75,
                pool_size=8,
                seed=0,
                verify=True,
                serve=ServeConfig(
                    window_ms=25.0,
                    max_batch_requests=MAX_BATCH_REQUESTS,
                    shards=n_shards,
                ),
            ),
        )
    finally:
        set_default_registry(previous)
    return report, registry


@pytest.fixture(scope="module")
def smoke():
    return simulate(N_SHARDS)


class TestShardSmoke:
    def test_every_request_served_and_verified(self, smoke):
        report, _ = smoke
        assert report.n_shards == N_SHARDS
        assert report.n_requests == N_CLIENTS * REQUESTS_PER_CLIENT
        assert report.n_rejected == 0
        assert report.n_timed_out == 0
        assert report.n_served == report.n_requests
        # verify=True raised on any divergence: every sharded response was
        # compared against the unsharded serial baseline.
        assert report.n_verified == report.n_requests

    def test_shard_metrics_emitted(self, smoke):
        _, registry = smoke
        for shard_id in range(N_SHARDS):
            rows = registry.get(f"shard.{shard_id}.rows")
            assert rows.value > 0
            executed = registry.get(f"shard.{shard_id}.classes_executed")
            assert executed.value > 0
        assert registry.get("shard.sets_built").value >= 1
        assert registry.get("shard.scatters").value >= 1
        assert (
            registry.get("shard.gathers").value
            == registry.get("shard.scatters").value
        )

    def test_partitions_cover_the_fact_table(self, smoke):
        _, registry = smoke
        db = build_paper_database(config=PaperConfig(scale=SCALE))
        n_fact_rows = db.catalog.get("ABCD").table.n_rows
        sharded_rows = sum(
            registry.get(f"shard.{i}.rows").value for i in range(N_SHARDS)
        )
        # Each shard's gauge counts the rows of its fact partition plus
        # its private copies of the materialized views — so the fact rows
        # alone are a lower bound and every partition is non-empty.
        assert sharded_rows >= n_fact_rows

    def test_report_names_the_shards(self, smoke):
        report, _ = smoke
        assert f"{N_SHARDS} shard" in report.render()

    def test_shard_kill_recovered_by_degradation(self):
        fault = FaultPlan(
            [InjectionPoint(site="shard.exec", shard=1)], seed=1998
        )
        report, _ = simulate(N_SHARDS, fault_plan=fault, n_clients=4)
        assert fault.n_fired > 0
        assert report.n_served == report.n_requests
        assert report.n_verified == report.n_requests
        assert report.n_degraded > 0
        assert report.n_rejected == 0
        assert report.n_timed_out == 0
