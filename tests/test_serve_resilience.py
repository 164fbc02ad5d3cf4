"""Serve-layer resilience: retry, quarantine, degraded fallback, and the
two latent-bug regressions (deadline handling in fan-out; result-cache
retention after a partially-failed batch).

All fault placement targets tables the optimizer's plan actually reads
(an injection point on an untouched view never fires — see the chaos
sweep for the systematic version of that check).
"""

from __future__ import annotations

from concurrent.futures import InvalidStateError

import pytest

from repro.check import first_divergence, reference_answer
from repro.engine.result_cache import attach_cache
from repro.engine.session import query_key
from repro.faults import (
    FaultPlan,
    InjectedFault,
    InjectionPoint,
    PartialResultError,
)
from repro.schema.query import Aggregate, GroupBy, GroupByQuery
from repro.serve import (
    DeadlineExceeded,
    QueryService,
    RequestQuarantined,
    RetryPolicy,
    ServeConfig,
    ServeFuture,
    ServeResponse,
)

from helpers import make_tiny_db


def coarse_query(label: str) -> GroupByQuery:
    """Answerable from the X'Y' view (and, degraded, from the XY base)."""
    return GroupByQuery(
        groupby=GroupBy((1, 1)), predicates=(), aggregate=Aggregate.SUM,
        label=label,
    )


def leaf_query(label: str) -> GroupByQuery:
    """Answerable only from the XY base table."""
    return GroupByQuery(
        groupby=GroupBy((0, 0)), predicates=(), aggregate=Aggregate.SUM,
        label=label,
    )


# -- retry --------------------------------------------------------------------


def test_transient_fault_is_retried_to_success():
    db = make_tiny_db()
    queries = [leaf_query("a"), coarse_query("b")]
    # nth=1: the first base-table scan dies, every later one succeeds.
    db.arm_faults(
        FaultPlan([InjectionPoint(site="storage.scan", table="XY", nth=1)])
    )
    service = QueryService(
        db,
        ServeConfig(window_ms=1.0, max_attempts=3, backoff_base_ms=10.0),
    )
    try:
        with service:
            response = service.submit(queries).result(timeout=30)
    finally:
        db.disarm_faults()
    assert set(response.results) == {q.qid for q in queries}
    assert service.stats.n_retries == 1
    assert service.stats.n_quarantined == 0
    # Exactly one backoff (before attempt 2) on the simulated clock.
    assert service.stats.backoff_ms == 10.0
    for query in queries:
        assert first_divergence(
            reference_answer(db, query).groups,
            response.results[query.qid].groups,
        ) is None


# -- quarantine ---------------------------------------------------------------


def test_persistent_fault_quarantines_request_alone():
    db = make_tiny_db(materialized=("X'Y'",))
    bad = coarse_query("bad")
    safe = leaf_query("safe")
    # tplo keeps the view-answerable and base-only queries in separate
    # classes, so the armed view fault kills exactly one class.
    db.arm_faults(
        FaultPlan([InjectionPoint(site="storage.page_read", table="X'Y'")])
    )
    service = QueryService(
        db,
        ServeConfig(
            window_ms=200.0, max_attempts=2, backoff_base_ms=5.0,
            degrade=False, algorithm="tplo",
        ),
    )
    try:
        with service:
            bad_future = service.submit([bad])
            safe_future = service.submit([safe])
            with pytest.raises(RequestQuarantined) as info:
                bad_future.result(timeout=30)
            safe_response = safe_future.result(timeout=30)
    finally:
        db.disarm_faults()
    assert info.value.qids == (bad.qid,)
    assert isinstance(info.value.cause, InjectedFault)
    # The batchmate completed, correctly, in the same batch.
    assert first_divergence(
        reference_answer(db, safe).groups,
        safe_response.results[safe.qid].groups,
    ) is None
    assert service.stats.n_quarantined == 1
    assert service.stats.n_served == 1
    assert service.stats.n_retries == 1  # one re-attempt before giving up


# -- degraded fallback --------------------------------------------------------


def test_degraded_replanning_answers_from_the_base_table():
    db = make_tiny_db(materialized=("X'Y'",))
    query = coarse_query("degraded")
    # Sanity: the undegraded plan reads the view.
    assert [c.source for c in db.optimize([query], "gg").classes] == ["X'Y'"]
    db.arm_faults(
        FaultPlan([InjectionPoint(site="storage.page_read", table="X'Y'")])
    )
    service = QueryService(
        db,
        ServeConfig(
            window_ms=1.0, max_attempts=2, backoff_base_ms=5.0, degrade=True,
        ),
    )
    try:
        with service:
            response = service.submit([query]).result(timeout=30)
    finally:
        db.disarm_faults()
    assert service.stats.n_degraded == 1
    assert service.stats.n_quarantined == 0
    assert first_divergence(
        reference_answer(db, query).groups,
        response.results[query.qid].groups,
    ) is None


def test_degrade_failure_still_quarantines():
    """When even the raw base table is poisoned, degradation cannot save
    the query and the request is quarantined with the typed cause."""
    db = make_tiny_db()
    query = leaf_query("doomed")
    db.arm_faults(
        FaultPlan([InjectionPoint(site="storage.scan", table="XY")])
    )
    service = QueryService(
        db,
        ServeConfig(
            window_ms=1.0, max_attempts=2, backoff_base_ms=5.0, degrade=True,
        ),
    )
    try:
        with service:
            with pytest.raises(RequestQuarantined) as info:
                service.submit([query]).result(timeout=30)
    finally:
        db.disarm_faults()
    assert info.value.qids == (query.qid,)
    assert isinstance(info.value.cause, InjectedFault)


# -- ServeFuture --------------------------------------------------------------


def test_future_try_setters_are_idempotent():
    future = ServeFuture(1)
    first = ServeResponse(request_id=1)
    assert future.try_resolve(first) is True
    assert future.try_resolve(ServeResponse(request_id=1)) is False
    assert future.try_resolve(RuntimeError("late")) is False
    assert future.result(timeout=1) is first
    # The strict setters still enforce single assignment.
    with pytest.raises(InvalidStateError):
        future.set_result(first)


# -- latent-bug regression: deadline handling ---------------------------------


def test_request_expiring_during_execution_gets_deadline_exceeded():
    """A request whose deadline passes while its batch executes must be
    failed with DeadlineExceeded — not handed a result after the fact —
    and the scheduler must survive resolving it exactly once."""
    db = make_tiny_db()
    service = QueryService(db, ServeConfig(window_ms=120.0))
    with service:
        # The deadline (1 ms) expires inside the 120 ms batching window,
        # so the request is alive at assembly but expired by fan-out.
        doomed = service.submit([leaf_query("doomed")], deadline_ms=1.0)
        with pytest.raises(DeadlineExceeded, match="past its deadline"):
            doomed.result(timeout=30)
        # The scheduler is still healthy: a follow-up request is served.
        ok = service.submit([coarse_query("ok")]).result(timeout=30)
        assert len(ok.results) == 1
    assert service.stats.n_timed_out >= 1


# -- latent-bug regression: cache retention after partial failure -------------


def _partial_failure_setup():
    """Tiny db + two queries that tplo splits into two classes, with a
    persistent fault on the base class only."""
    db = make_tiny_db(materialized=("X'Y'",))
    cache = attach_cache(db)
    survivor = coarse_query("survivor")
    casualty = leaf_query("casualty")
    fault = FaultPlan([InjectionPoint(site="storage.scan", table="XY")])
    return db, cache, survivor, casualty, fault


def test_cache_retains_nothing_from_a_partially_failed_batch():
    db, cache, survivor, casualty, fault = _partial_failure_setup()
    db.arm_faults(fault)
    try:
        report = db.run_queries([survivor, casualty], "tplo")
    finally:
        db.disarm_faults()
    assert report.failed_qids == [casualty.qid]
    assert survivor.qid in report.results
    # The survivor's (correct) result must NOT be in the cache: caching it
    # would let an identical later batch skip re-execution — and skip
    # re-surfacing the casualty's typed error.
    assert len(cache) == 0
    # A clean re-run executes everything and only then populates the cache.
    clean = db.run_queries([survivor, casualty], "tplo")
    assert not clean.failures
    assert clean.n_cache_hits == 0
    assert len(cache) == 2


def test_serve_cache_not_polluted_by_quarantined_batch():
    db, cache, survivor, casualty, fault = _partial_failure_setup()
    db.arm_faults(fault)
    service = QueryService(
        db,
        ServeConfig(
            window_ms=200.0, max_attempts=2, backoff_base_ms=5.0,
            degrade=False, algorithm="tplo",
        ),
    )
    try:
        with service:
            ok_future = service.submit([survivor])
            bad_future = service.submit([casualty])
            ok_response = ok_future.result(timeout=30)
            with pytest.raises(RequestQuarantined):
                bad_future.result(timeout=30)
    finally:
        db.disarm_faults()
    assert len(ok_response.results) == 1
    # Neither the quarantined query nor its surviving batchmate was cached.
    assert cache.get(casualty) is None
    assert cache.get(survivor) is None
    assert len(cache) == 0


def test_serve_cache_keeps_degraded_results():
    """Degraded recovery *completes* the batch, so its results are safe to
    cache — the typed error was consumed by a successful fallback."""
    db = make_tiny_db(materialized=("X'Y'",))
    cache = attach_cache(db)
    query = coarse_query("recovered")
    db.arm_faults(
        FaultPlan([InjectionPoint(site="storage.page_read", table="X'Y'")])
    )
    service = QueryService(
        db,
        ServeConfig(
            window_ms=1.0, max_attempts=2, backoff_base_ms=5.0, degrade=True,
        ),
    )
    try:
        with service:
            service.submit([query]).result(timeout=30)
    finally:
        db.disarm_faults()
    assert service.stats.n_degraded == 1
    assert cache.get(query) is not None
    assert query_key(query) is not None  # exercised for the import


# -- the same recovery through the bare door ----------------------------------
# Recovery is ``run_queries``' (docs/architecture.md §"Answering a batch",
# step 5): the scenarios above, without a service.


def _reference_equal(db, report, query):
    assert first_divergence(
        reference_answer(db, query).groups, report.results[query.qid].groups
    ) is None


def test_door_retries_a_transient_fault_to_success():
    db = make_tiny_db()
    queries = [leaf_query("a"), coarse_query("b")]
    db.arm_faults(
        FaultPlan([InjectionPoint(site="storage.scan", table="XY", nth=1)])
    )
    try:
        report = db.run_queries(
            queries, recovery=RetryPolicy(max_attempts=3, backoff_base_ms=10.0)
        )
    finally:
        db.disarm_faults()
    assert report.failures == []
    assert set(report.results) == {q.qid for q in queries}
    assert len(report.attempts) == 2 and report.attempts[0].failures
    # Every attempt's charged cost is in the total, in attempt order.
    assert report.sim_ms == report.attempts[0].sim_ms + report.attempts[1].sim_ms
    for query in queries:
        _reference_equal(db, report, query)


def test_door_names_exactly_the_persistently_failed_queries():
    db = make_tiny_db(materialized=("X'Y'",))
    bad, safe = coarse_query("bad"), leaf_query("safe")
    db.arm_faults(
        FaultPlan([InjectionPoint(site="storage.page_read", table="X'Y'")])
    )
    try:
        report = db.run_queries(
            [bad, safe], "tplo", recovery=RetryPolicy(max_attempts=2)
        )
    finally:
        db.disarm_faults()
    assert report.failed_qids == [bad.qid]
    assert isinstance(report.failures[0].error, InjectedFault)
    assert [a.plan.n_queries for a in report.attempts] == [2, 1]
    _reference_equal(db, report, safe)
    with pytest.raises(PartialResultError):
        report.result_for(bad)


def test_door_degrades_to_the_reference_answer():
    db = make_tiny_db(materialized=("X'Y'",))
    query = coarse_query("degraded")
    db.arm_faults(
        FaultPlan([InjectionPoint(site="storage.page_read", table="X'Y'")])
    )
    try:
        report = db.run_queries(
            [query], recovery=RetryPolicy(max_attempts=2, degrade=True)
        )
    finally:
        db.disarm_faults()
    assert report.failures == []
    algorithms = [a.plan.algorithm for a in report.attempts]
    assert algorithms == ["gg", "gg", "degraded"]
    assert report.attempts[-1].plan.classes[0].source == "XY"
    _reference_equal(db, report, query)


def test_door_reports_a_failed_degrade():
    db = make_tiny_db()
    query = leaf_query("doomed")
    db.arm_faults(FaultPlan([InjectionPoint(site="storage.scan", table="XY")]))
    try:
        report = db.run_queries(
            [query], recovery=RetryPolicy(max_attempts=2, degrade=True)
        )
    finally:
        db.disarm_faults()
    assert report.failed_qids == [query.qid]
    assert isinstance(report.failures[0].error, InjectedFault)


def test_door_retains_every_answer_of_a_batch_retried_to_success():
    """Declared: the whole recovered batch is cached, not just the
    re-asked queries (the survivor came from the first attempt)."""
    db, cache, survivor, casualty, _ = _partial_failure_setup()
    db.arm_faults(
        FaultPlan([InjectionPoint(site="storage.scan", table="XY", nth=1)])
    )
    try:
        report = db.run_queries(
            [survivor, casualty], "tplo", recovery=RetryPolicy(max_attempts=2)
        )
    finally:
        db.disarm_faults()
    assert report.failures == [] and len(report.attempts) == 2
    assert cache.get(survivor) is not None and cache.get(casualty) is not None


def test_door_retains_nothing_when_a_query_ends_quarantined():
    """Declared: a degraded answer is not cached when a batchmate stays
    failed.  The view's pages always fail, so ``survivor`` degrades to the
    base table; base scans 1 and 3 fail, so ``casualty`` loses its attempt
    and then its degrade (scan 2 is the survivor's degrade)."""
    db, cache, survivor, casualty, _ = _partial_failure_setup()
    db.arm_faults(
        FaultPlan([
            InjectionPoint(site="storage.page_read", table="X'Y'"),
            InjectionPoint(site="storage.scan", table="XY", nth=3),
            InjectionPoint(site="storage.scan", table="XY", nth=1),
        ])
    )
    try:
        report = db.run_queries(
            [survivor, casualty],
            "tplo",
            recovery=RetryPolicy(max_attempts=1, degrade=True),
        )
    finally:
        db.disarm_faults()
    assert [a.plan.algorithm for a in report.attempts] == [
        "tplo", "degraded", "degraded"
    ]
    assert report.failed_qids == [casualty.qid]
    _reference_equal(db, report, survivor)
    assert len(cache) == 0


def test_no_recovery_is_one_plain_execution():
    db = make_tiny_db(materialized=("X'Y'",))
    batch = [coarse_query("a"), leaf_query("b")]

    def armed():
        return FaultPlan(
            [InjectionPoint(site="storage.scan", table="XY", nth=1)]
        )

    db.arm_faults(armed())
    try:
        plain = db.run_queries(batch, "tplo")
        db.arm_faults(armed())
        by_hand = db.execute(db.optimize(batch, "tplo"))
    finally:
        db.disarm_faults()
    assert plain.attempts == [] and plain.failed_qids == [batch[1].qid]
    assert plain.sim_ms == by_hand.sim_ms
    assert plain.failed_qids == by_hand.failed_qids
    assert [e.sim.as_dict() for e in plain.class_executions] == [
        e.sim.as_dict() for e in by_hand.class_executions
    ]
    # A clean batch: a recovery policy that never re-runs anything returns
    # the same report as no policy.
    clean = db.run_queries(batch, "tplo")
    recovered = db.run_queries(batch, "tplo", recovery=RetryPolicy())
    assert recovered.attempts == []
    assert recovered.sim_ms == clean.sim_ms
    assert {q: r.groups for q, r in recovered.results.items()} == {
        q: r.groups for q, r in clean.results.items()
    }
