"""Recovery's retry contract — everything on the simulated clock.

Recovery is the front door's (``Database.run_queries(recovery=)``, one
plain bounded loop) and its backoff is the query service's (the one place
a simulated clock moves).  The contract under test: exhaustion after
*exactly* ``max_attempts`` attempts, ``retry.*`` metrics and
``retry.attempt`` spans that count attempts exactly, a non-injected error
escaping at once, and deterministic exponential delays charged to the
service's :class:`SimulatedClock` (never a wall-clock sleep).
"""

from __future__ import annotations

import re
import time
from pathlib import Path

import pytest

import repro
from repro.faults import FaultPlan, InjectionPoint
from repro.obs.metrics import MetricsRegistry, set_default_registry
from repro.schema.query import Aggregate, GroupBy, GroupByQuery
from repro.serve import (
    QueryService,
    RequestQuarantined,
    RetryPolicy,
    ServeConfig,
    SimulatedClock,
)

from helpers import make_tiny_db


@pytest.fixture()
def registry():
    fresh = MetricsRegistry()
    previous = set_default_registry(fresh)
    try:
        yield fresh
    finally:
        set_default_registry(previous)


def leaf_query(label: str) -> GroupByQuery:
    """Answerable only from the XY base table."""
    return GroupByQuery(
        groupby=GroupBy((0, 0)), predicates=(), aggregate=Aggregate.SUM,
        label=label,
    )


def scan_faults(fires=None) -> FaultPlan:
    """The first ``fires`` base-table scans fail (None: every one)."""
    return FaultPlan(
        [InjectionPoint(site="storage.scan", table="XY", max_fires=fires)]
    )


def counts(registry) -> tuple:
    return tuple(
        registry.counter(f"retry.{name}").value
        for name in ("attempts", "failures", "exhausted")
    )


def serve_one(db, faults: FaultPlan, **config):
    """One request for one leaf query through a fresh service with
    ``faults`` armed; returns (service, response or RequestQuarantined)."""
    db.arm_faults(faults)
    service = QueryService(db, ServeConfig(window_ms=1.0, **config))
    try:
        with service:
            future = service.submit([leaf_query("q")])
            try:
                outcome = future.result(timeout=30)
            except RequestQuarantined as exc:
                outcome = exc
    finally:
        db.disarm_faults()
    return service, outcome


def test_policy_validation():
    with pytest.raises(ValueError, match="max_attempts"):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError, match="backoff_base_ms"):
        RetryPolicy(backoff_base_ms=-1.0)


def test_backoff_sequence_is_deterministic_exponential():
    policy = RetryPolicy(max_attempts=4, backoff_base_ms=50.0)
    assert [policy.backoff_ms(k) for k in (1, 2, 3, 4)] == [
        0.0, 50.0, 100.0, 200.0,
    ]


def test_clock_advances_monotonically():
    clock = SimulatedClock()
    assert clock.now_ms == 0.0
    assert clock.advance(12.5) == 12.5
    assert clock.advance(0.0) == 12.5
    with pytest.raises(ValueError):
        clock.advance(-1.0)


def test_first_try_success_waits_nothing(registry):
    db = make_tiny_db()
    with db.trace():
        report = db.run_queries(
            [leaf_query("q")], recovery=RetryPolicy(max_attempts=3)
        )
    assert report.failures == [] and report.attempts == []
    assert counts(registry) == (1, 0, 0)
    [span] = db.last_trace.find_all("retry.attempt")
    assert span.attrs == {"attempt": 1}
    service, _response = serve_one(db, FaultPlan([]), max_attempts=3)
    assert service.sim_clock.now_ms == 0.0
    assert registry.histogram("retry.backoff_ms").count == 0


def test_success_after_failures_charges_exact_backoff(registry):
    db = make_tiny_db()
    # Scans 1 and 2 fail: attempts 1 and 2 die, attempt 3 succeeds.
    service, response = serve_one(
        db, scan_faults(2), max_attempts=5, backoff_base_ms=10.0
    )
    assert len(response.results) == 1
    assert service.stats.n_retries == 2
    # Waits: 0 before #1, 10 before #2, 20 before #3.
    assert service.sim_clock.now_ms == 30.0
    assert counts(registry) == (3, 2, 0)
    backoff = registry.histogram("retry.backoff_ms")
    assert (backoff.count, backoff.total) == (2, 30.0)
    assert (backoff.min, backoff.max) == (10.0, 20.0)


def test_exhaustion_after_exactly_max_attempts(registry):
    db = make_tiny_db()
    db.arm_faults(scan_faults())
    try:
        with db.trace():
            report = db.run_queries(
                [leaf_query("q")], recovery=RetryPolicy(max_attempts=3)
            )
    finally:
        db.disarm_faults()
    assert len(report.attempts) == 3 and len(report.failures) == 1
    assert counts(registry) == (3, 3, 1)
    spans = db.last_trace.find_all("retry.attempt")
    assert [span.attrs["attempt"] for span in spans] == [1, 2, 3]
    assert all(span.attrs["failed"] for span in spans)
    assert all(
        set(span.attrs) == {"attempt", "failed", "error"} for span in spans
    )
    assert spans[-1].attrs["error"] == str(report.failures[0].error)


def test_unretryable_errors_propagate_immediately(registry, monkeypatch):
    db = make_tiny_db()
    calls = []

    def fails_differently(*args, **kwargs):
        calls.append(args)
        raise KeyError("not retryable")

    monkeypatch.setattr(db, "execute", fails_differently)
    with pytest.raises(KeyError):
        db.run_queries([leaf_query("q")], recovery=RetryPolicy(max_attempts=5))
    assert len(calls) == 1
    assert counts(registry) == (1, 0, 0)


def test_no_wall_clock_sleep_happens(registry):
    """Minutes of simulated backoff must cost ~zero wall time."""
    db = make_tiny_db()
    started = time.perf_counter()
    service, outcome = serve_one(
        db, scan_faults(), max_attempts=10, backoff_base_ms=60_000.0,
        degrade=False,
    )
    elapsed = time.perf_counter() - started
    assert isinstance(outcome, RequestQuarantined)
    policy = service.config.recovery
    assert service.sim_clock.now_ms == sum(
        policy.backoff_ms(k) for k in range(2, 11)
    )
    assert service.sim_clock.now_ms > 10_000_000.0  # minutes of waiting...
    assert elapsed < 5.0  # ...at wall speed (loose CI-safe bound)
    assert counts(registry) == (10, 10, 1)


def test_clock_is_optional(registry):
    """The bare door needs no clock: it re-asks without waiting, and only
    the service observes backoff."""
    db = make_tiny_db()
    db.arm_faults(scan_faults(1))
    try:
        report = db.run_queries(
            [leaf_query("q")], recovery=RetryPolicy(max_attempts=2)
        )
    finally:
        db.disarm_faults()
    assert report.failures == [] and len(report.attempts) == 2
    assert counts(registry) == (2, 1, 0)
    assert "retry.backoff_ms" not in registry


def test_recovery_is_stated_once_in_the_source():
    src = Path(repro.__file__).parent
    text = {
        str(path.relative_to(src)): path.read_text()
        for path in src.rglob("*.py")
    }
    for name in (
        "call_with_retry", "RetryExhausted", "BoundTracer", "def bound(",
        "metrics_to_dict", "total_backoff_ms", "backoff_multiplier",
    ):
        assert [path for path, body in text.items() if name in body] == [], name
    backoff = {
        path: body.count(".backoff_ms(")
        for path, body in text.items()
        if ".backoff_ms(" in body
    }
    assert backoff == {"serve/service.py": 1}
    # The serving stages are listed in one table, obs/metrics.py's STAGES:
    # nowhere else is a stage name a dict key or next to another in a list.
    stage = r'"(?:queued|coalesce|gather|retry|degrade)"'
    listing = re.compile(rf"{stage}\s*(?::|,\s*{stage})")
    assert {
        path: len(listing.findall(body))
        for path, body in text.items()
        if listing.search(body)
    } == {"obs/metrics.py": 5}
