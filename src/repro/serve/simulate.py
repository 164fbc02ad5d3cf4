"""Simulated concurrent load against a :class:`QueryService`.

The harness answers the question the serve layer exists for: *given N
concurrent clients issuing overlapping dimensional queries, how much
cheaper is micro-batched multi-query service than serving each request
alone?*  It:

1. builds deterministic per-client scripts
   (:func:`repro.workload.serve_load.client_scripts`),
2. measures the **serial baseline** — every request optimized and executed
   on its own, in submission order, no cross-request sharing, no cache —
   on the simulated cost clock,
3. drives the service with real concurrent client threads (optionally
   pre-loading the burst before the scheduler starts, so batch composition
   does not depend on thread-start jitter),
4. optionally verifies every response against the baseline results
   (``verify=True``; the serve layer must give the single-session
   engine's answers, :func:`repro.check.assert_same_answers`),
5. reports the service's own ledger (:class:`ServiceStats`: served,
   rejected, coalesce ratio, batched simulated cost, ...) beside what only
   the harness knows: throughput, latency quantiles, the served batch
   sizes, verification and the serial baseline.
"""

from __future__ import annotations

import collections
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from ..check.invariants import assert_same_answers
from ..core.operators.results import QueryResult
from ..engine.database import Database
from ..faults import FaultPlan
from ..obs.metrics import Histogram
from ..workload.serve_load import ClientScript, client_scripts
from .batching import ServeConfig
from .futures import ServeError, ServeFuture
from .service import QueryService, ServiceStats


#: How long the harness waits for each future before giving up.
WAIT_TIMEOUT_S = 120.0


def simulation_service(n_requests: int, **fields) -> ServeConfig:
    """The simulation's own service for a burst of ``n_requests``: a 25 ms
    window and a batch cap sized to the burst, so the whole pre-loaded load
    may ride one batch (an empty burst is :class:`SimulationConfig`'s to
    reject); ``fields`` set any other :class:`ServeConfig` field."""
    own = {"window_ms": 25.0, "max_batch_requests": max(1, n_requests)}
    return ServeConfig(**{**own, **fields})


@dataclass(frozen=True)
class SimulationConfig:
    """One simulated-load run: the load, and the service it is driven
    against."""

    n_clients: int = 32
    requests_per_client: int = 3
    seed: int = 0
    overlap: float = 0.75
    #: Submit every request before starting the scheduler (a pure burst);
    #: otherwise clients race the running scheduler (arrival-timing mode).
    preload: bool = True
    #: Cross-check every response against the serial baseline results.
    verify: bool = True
    #: Fault plan armed on the database *during the service run only*
    #: (the serial baseline always executes fault-free, so it stays the
    #: correctness reference).  See :mod:`repro.faults`.
    faults: Optional[FaultPlan] = None
    #: The service's configuration, used as given except that the
    #: admission queue is deepened to hold the whole burst.  None is
    #: :func:`simulation_service` for the burst.
    serve: Optional[ServeConfig] = None

    def __post_init__(self) -> None:
        for name in ("n_clients", "requests_per_client"):
            if getattr(self, name) <= 0:
                raise ValueError(
                    f"{name} must be positive (got {getattr(self, name)})"
                )
        if not 0.0 <= self.overlap <= 1.0:
            raise ValueError(f"overlap must be in [0, 1] (got {self.overlap})")


@dataclass
class SimulationReport:
    """Outcome of one simulated-load run: the service's own ledger, plus
    what only the simulation knows (the load, verification, the serial
    baseline and the wall clock)."""

    n_clients: int
    n_requests: int
    n_queries: int
    #: The service's ledger at the end of the run (a snapshot).
    stats: ServiceStats
    n_verified: int
    wall_s: float
    #: Simulated cost of the same requests executed serially, unshared.
    serial_sim_ms: float
    n_faults_injected: int
    #: Served requests per answering batch, in batch order.
    batch_sizes: List[int]
    #: Submit-to-resolve latency of every served request.
    latency_ms: Histogram
    #: The service's flight recorder (None when disabled) — still readable
    #: after the run; the CLI dumps it via ``--flight-recorder PATH``.
    recorder: Optional[object] = field(repr=False, compare=False)

    @property
    def speedup(self) -> float:
        """Serial over batched simulated cost (>1 means sharing won)."""
        batched_ms = self.stats.sim_ms_total
        return self.serial_sim_ms / batched_ms if batched_ms else float("inf")

    @property
    def throughput_rps(self) -> float:
        """Served requests per wall-clock second."""
        return self.stats.n_served / self.wall_s if self.wall_s else 0.0

    def render(self) -> str:
        """Multi-line console report."""
        stats = self.stats
        sizes = sorted(self.batch_sizes)
        dist = ", ".join(str(size) for size in sizes) if sizes else "-"
        latency = " / ".join(
            f"{label} {self.latency_ms.quantile(q) or 0.0:.1f}"
            for label, q in (("p50", 0.50), ("p95", 0.95), ("max", 1.0))
        )
        lines = [
            f"serve simulation: {self.n_clients} client(s), "
            f"{self.n_requests} request(s), {self.n_queries} "
            f"component query(ies)",
            f"  served {stats.n_served}, rejected {stats.n_rejected}, "
            f"timed out {stats.n_timed_out}"
            + (f", verified {self.n_verified}" if self.n_verified else ""),
            f"  wall {self.wall_s * 1000:.1f} ms, "
            f"throughput {self.throughput_rps:.1f} req/s",
            f"  latency ms {latency}",
            f"  sharing: coalesce ratio {stats.coalesce_ratio:.2f}, "
            f"{stats.n_duplicates_eliminated} duplicate(s) eliminated, "
            f"{stats.n_cache_hits} cache hit(s)",
            f"  batch sizes (requests): [{dist}]",
            f"  simulated cost: batched {stats.sim_ms_total:.1f} ms vs "
            f"serial {self.serial_sim_ms:.1f} ms "
            f"({self.speedup:.2f}x cheaper)",
        ]
        if self.n_faults_injected or stats.n_quarantined or stats.n_retries:
            lines.append(
                f"  resilience: {self.n_faults_injected} fault(s) injected, "
                f"{stats.n_retries} retry(ies), {stats.n_degraded} "
                f"degraded quer(ies), {stats.n_quarantined} request(s) "
                f"quarantined"
            )
        return "\n".join(lines)


def serial_baseline_ms(
    db: Database, scripts: List[ClientScript], algorithm: str
) -> Tuple[float, Dict[Tuple[int, int], Dict[int, QueryResult]]]:
    """Execute every scripted request alone, in script order.

    Returns the summed simulated cost and, for verification, each
    request's results keyed by ``(client_id, request_index)`` and qid.
    This is the no-serve world: one optimizer run and one execution per
    request, sharing only within the request itself.
    """
    total_ms = 0.0
    results: Dict[Tuple[int, int], Dict[int, QueryResult]] = {}
    for script in scripts:
        for index, queries in enumerate(script.requests):
            plan = db.optimize(queries, algorithm)
            report = db.execute(plan)
            total_ms += report.sim_ms
            results[(script.client_id, index)] = dict(report.results)
    return total_ms, results


def run_simulation(
    db: Database, config: Optional[SimulationConfig] = None
) -> SimulationReport:
    """Drive a service with simulated concurrent clients; see module doc."""
    config = config or SimulationConfig()
    scripts = client_scripts(
        db.schema,
        n_clients=config.n_clients,
        requests_per_client=config.requests_per_client,
        seed=config.seed,
        overlap=config.overlap,
    )
    n_requests = sum(script.n_requests for script in scripts)
    n_queries = sum(script.n_queries for script in scripts)
    serve = config.serve or simulation_service(n_requests)
    # The serial baseline always runs fault-free: it is the correctness
    # reference every served response is verified against.
    serial_ms, serial_results = serial_baseline_ms(
        db, scripts, serve.algorithm
    )
    if config.faults is not None:
        db.arm_faults(config.faults)

    service = QueryService(
        db,
        replace(
            serve, max_queue_depth=max(serve.max_queue_depth, n_requests)
        ),
    )

    futures: Dict[Tuple[int, int], ServeFuture] = {}

    def client_thread(script: ClientScript) -> None:
        for index, queries in enumerate(script.requests):
            try:
                # Each thread stores under its own keys: one dict item
                # assignment, atomic without a lock.
                futures[(script.client_id, index)] = service.submit(
                    queries, client=f"client{script.client_id}"
                )
            except ServeError:
                continue  # refused at the door; the service counts it

    started = time.perf_counter()
    threads = [
        threading.Thread(target=client_thread, args=(script,), daemon=True)
        for script in scripts
    ]
    for thread in threads:
        thread.start()
    if config.preload:
        # Burst mode: everything queues before the scheduler wakes, so the
        # batch composition is a property of the load, not of thread jitter.
        for thread in threads:
            thread.join()
        service.start()
    else:
        service.start()
        for thread in threads:
            thread.join()

    n_verified = 0
    latency_ms = Histogram("latency_ms")
    batch_sizes: "collections.Counter[int]" = collections.Counter()
    try:
        for key, future in sorted(futures.items()):
            try:
                response = future.result(timeout=WAIT_TIMEOUT_S)
            except ServeError:
                continue  # quarantined, timed out or stopped: counted
            batch_sizes[response.batch_id] += 1
            latency_ms.observe(response.latency_s * 1000.0)
            if config.verify:
                assert_same_answers(
                    serial_results[key].values(),
                    response.results.values(),
                    f"request {key} served and run serially",
                )
                n_verified += 1
    finally:
        service.stop()
        if config.faults is not None:
            db.disarm_faults()
    return SimulationReport(
        n_clients=config.n_clients,
        n_requests=n_requests,
        n_queries=n_queries,
        stats=service.stats.snapshot(),
        n_verified=n_verified,
        wall_s=time.perf_counter() - started,
        serial_sim_ms=serial_ms,
        n_faults_injected=(
            config.faults.n_fired if config.faults is not None else 0
        ),
        batch_sizes=[batch_sizes[b] for b in sorted(batch_sizes)],
        latency_ms=latency_ms,
        recorder=service.recorder,
    )
