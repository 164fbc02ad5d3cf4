"""Chaos sweep (tier-1): a seeded fault sweep over the paper workload.

For every paper test (Tests 1-7) x optimizer (tplo / etplg / gg / dag) x
injection site, a first-occurrence fault is armed and the plan executed.
The sweep asserts the whole resilience contract at once:

* a fault either fires and surfaces as a typed per-class failure, or
  never matches (the plan does not exercise that site) — it is *never*
  silently swallowed;
* surviving classes' results are byte-identical to the fault-free run;
* the buffer pool and the semantic result cache stay coherent afterwards
  (a disarmed re-run is clean and byte-identical).

Every injection is replayed from the fixed seed below.
"""

from __future__ import annotations

import random

import pytest

from repro.check.paranoia import first_divergence
from repro.engine.result_cache import attach_cache
from repro.faults import (
    SITES,
    FaultPlan,
    InjectedFault,
    InjectionPoint,
    PartialResultError,
)
from repro.workload.paper_queries import ALL_PAPER_TESTS

from helpers import make_tiny_db, random_query

#: The sweep's fixed seed: every firing below is reproducible from it.
CHAOS_SEED = 1998

ALGORITHMS = ("tplo", "etplg", "gg", "dag")

SWEEP = [
    (test_name, algorithm)
    for test_name in sorted(ALL_PAPER_TESTS)
    for algorithm in ALGORITHMS
]


def _snapshot(report):
    """qid -> groups dict, deep enough for byte-identity comparison."""
    return {
        qid: dict(result.groups) for qid, result in report.results.items()
    }


@pytest.mark.parametrize(
    "test_name, algorithm",
    SWEEP,
    ids=[f"{t}-{a}" for t, a in SWEEP],
)
def test_fault_sweep_over_paper_workload(paper_db, paper_qs, test_name,
                                         algorithm):
    db = paper_db
    queries = [paper_qs[i] for i in ALL_PAPER_TESTS[test_name]]
    plan = db.optimize(queries, algorithm)
    all_qids = {q.qid for q in queries}

    clean = db.execute(plan)
    assert not clean.failures
    baseline = _snapshot(clean)

    for site in SITES:
        fault = FaultPlan(
            [InjectionPoint(site=site, nth=1)], seed=CHAOS_SEED
        )
        db.arm_faults(fault)
        try:
            report = db.execute(plan)
        finally:
            db.disarm_faults()

        if fault.n_fired == 0:
            # The plan never exercised this site (e.g. a pure-scan plan
            # performs no index lookups): the run must be fully clean.
            assert not report.failures, (
                f"{site}: failures without a firing"
            )
            assert _snapshot(report) == baseline
            continue

        # Fired exactly once (nth is single-shot)...
        assert fault.n_fired == 1
        event = fault.fired[0]
        assert event.site == site
        # ...and was NOT silently swallowed: it surfaced as >= 1 typed
        # class failure carrying the injected error.
        assert report.failures, (
            f"{site}: fault {event.describe()} fired but the report "
            f"records no failure"
        )
        assert all(
            isinstance(f.error, InjectedFault) for f in report.failures
        )
        assert all(f.error.site == site for f in report.failures)

        # Failed + surviving qids partition the workload exactly.
        failed = set(report.failed_qids)
        surviving = set(report.results)
        assert failed and failed | surviving == all_qids
        assert not failed & surviving

        # Survivors are byte-identical to the fault-free execution.
        for qid in surviving:
            assert report.results[qid].groups == baseline[qid], (
                f"{site}: surviving qid {qid} diverged from the "
                f"fault-free run"
            )
        for query in queries:
            if query.qid in failed:
                with pytest.raises(PartialResultError):
                    report.result_for(query)

        # Buffer pool stayed within its frame budget through the abort.
        assert len(db.pool) <= db.pool.capacity_pages

    # Coherence: after the whole sweep, a disarmed run is clean and
    # byte-identical — no fault left the pool or tables corrupted.
    final = db.execute(plan)
    assert not final.failures
    assert _snapshot(final) == baseline


def test_derive_fault_fails_only_dependent_classes(paper_db, paper_qs):
    """A fault inside a shared materialized intermediate (``operator.derive``)
    fails exactly the dag class that owns the derive step — its scan and
    derived queries — while sibling classes survive byte-identical."""
    db = paper_db
    queries = [paper_qs[i] for i in ALL_PAPER_TESTS["test1"]]
    plan = db.optimize(queries, "dag")
    dag_classes = [cls for cls in plan.classes if cls.has_derives]
    assert dag_classes, "test1's dag plan materializes an intermediate"

    clean = db.execute(plan)
    assert not clean.failures
    baseline = _snapshot(clean)

    fault = FaultPlan(
        [InjectionPoint(site="operator.derive", nth=1)], seed=CHAOS_SEED
    )
    db.arm_faults(fault)
    try:
        report = db.execute(plan)
    finally:
        db.disarm_faults()

    assert fault.n_fired == 1
    assert report.failures
    assert all(
        isinstance(f.error, InjectedFault) for f in report.failures
    )
    failed = set(report.failed_qids)
    # Exactly one dag class died: the failed qids are its member set.
    assert any(
        failed == {q.qid for q in cls.queries} for cls in dag_classes
    ), failed
    # Classes with no derive step never even reach the site; survivors
    # are byte-identical to the fault-free run.
    for qid, groups in _snapshot(report).items():
        assert groups == baseline[qid]

    # Disarmed re-run is clean and byte-identical (coherence).
    final = db.execute(plan)
    assert not final.failures
    assert _snapshot(final) == baseline


def test_result_cache_coherent_under_chaos():
    """Random single faults against a cached tiny database: the cache must
    never serve a result that diverges from the reference evaluator, and
    must never retain entries from a partially-failed batch."""
    db = make_tiny_db(materialized=("X'Y'",))
    cache = attach_cache(db)
    rng = random.Random(CHAOS_SEED)
    from repro.check import reference_answer

    for round_no in range(12):
        queries = [
            random_query(db.schema, rng, label=f"r{round_no}q{i}")
            for i in range(3)
        ]
        site = rng.choice(SITES)
        nth = rng.randint(1, 4)
        fault = FaultPlan(
            [InjectionPoint(site=site, nth=nth)],
            seed=CHAOS_SEED + round_no,
        )
        db.arm_faults(fault)
        try:
            report = db.run_queries(queries, "gg")
        finally:
            db.disarm_faults()
        if report.failures:
            # Partial batch: nothing may have been retained this round.
            assert all(
                isinstance(f.error, InjectedFault) for f in report.failures
            )
        # Every served result — executed or cached — matches the
        # reference evaluator.
        for query in queries:
            if query.qid in report.failed_qids:
                continue
            divergence = first_divergence(
                reference_answer(db, query).groups,
                report.results[query.qid].groups,
            )
            assert divergence is None, (
                f"round {round_no}: {site} nth={nth}: {divergence}"
            )
    # The cache's coherence invariant held throughout; end-state sanity:
    assert len(cache) <= cache.max_entries


def test_single_shard_kill_recovered_by_degraded_replanning():
    """Kill one shard persistently during sharded serving: every scattered
    class loses its task on that shard, retries exhaust (the fault stays
    armed), and degraded replanning — which runs per-query on the
    unsharded base table, where ``shard.exec`` is never checked — recovers
    the whole batch.  Results must match the fault-free reference and the
    surviving shards' data must be untouched."""
    from repro.core.executor import execute_plan
    from repro.schema.query import GroupBy, GroupByQuery
    from repro.serve import QueryService, ServeConfig

    db = make_tiny_db(n_rows=300)
    queries = [
        GroupByQuery(groupby=GroupBy((1, 1)), label="a"),
        GroupByQuery(groupby=GroupBy((0, 1)), label="b"),
        GroupByQuery(groupby=GroupBy((2, 0)), label="c"),
    ]
    baseline = execute_plan(db, db.optimize(queries, "gg"), n_workers=4)

    shard_set = db.build_shards(3)
    row_counts = [shard.n_rows for shard in shard_set.shards]

    fault = FaultPlan(
        [InjectionPoint(site="shard.exec", shard=1)], seed=CHAOS_SEED
    )
    service = QueryService(
        db,
        ServeConfig(
            window_ms=5.0, shards=3, max_attempts=2, backoff_base_ms=1.0
        ),
    )
    service._shard_set = shard_set
    db.arm_faults(fault)
    try:
        with service:
            response = service.submit(queries).result(timeout=60.0)
    finally:
        db.disarm_faults()

    # The fault fired (shard 1's tasks died) and recovery went through
    # degraded replanning, not silent success.
    assert fault.n_fired > 0
    assert all(
        dict(event.attrs).get("shard") == 1 for event in fault.fired
    )
    stats = service.stats.snapshot()
    assert stats.n_degraded == len(queries)
    assert stats.n_failed == 0

    # The recovered batch matches the fault-free reference.
    for query in queries:
        got = response.result_for(query)
        assert got.approx_equals(baseline.result_for(query)), query.label

    # Survivors untouched: the other shards' partitions are exactly as
    # built, and a disarmed sharded run over the same set is clean.
    assert [shard.n_rows for shard in shard_set.shards] == row_counts
    from repro.core.executor import execute_plan

    plan = db.optimize(queries, "gg")
    clean = execute_plan(db, plan, shard_set=shard_set, n_workers=4)
    assert not clean.failures
    for query in queries:
        assert clean.result_for(query).approx_equals(
            baseline.result_for(query)
        )
