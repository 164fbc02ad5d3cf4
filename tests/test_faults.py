"""Unit tests for repro.faults and per-class fault isolation in the
executor.

Covers: trigger semantics (every-match, table filter, nth, probability,
max_fires), spec parsing, determinism/reset, and the executor contract —
a class killed by an injected fault leaves its siblings byte-identical
while the report carries a typed :class:`ClassFailure`.
"""

from __future__ import annotations

import pytest

from repro.core.executor import execute_plan
from repro.faults import (
    SITES,
    FaultPlan,
    InjectedFault,
    InjectionPoint,
    PartialResultError,
    parse_fault_plan,
)
from repro.obs.metrics import MetricsRegistry, set_default_registry
from repro.schema.query import Aggregate, GroupBy, GroupByQuery

from helpers import make_tiny_db


# -- InjectionPoint validation ------------------------------------------------


def test_unknown_site_rejected():
    with pytest.raises(ValueError, match="unknown fault site"):
        InjectionPoint(site="storage.nope")


def test_bad_trigger_values_rejected():
    with pytest.raises(ValueError, match="nth must be >= 1"):
        InjectionPoint(site="storage.scan", nth=0)
    with pytest.raises(ValueError, match="probability"):
        InjectionPoint(site="storage.scan", probability=1.5)
    with pytest.raises(ValueError, match="not both"):
        InjectionPoint(site="storage.scan", nth=1, probability=0.5)
    with pytest.raises(ValueError, match="max_fires"):
        InjectionPoint(site="storage.scan", max_fires=0)


def test_point_names_are_unique_by_default():
    a = InjectionPoint(site="storage.scan")
    b = InjectionPoint(site="storage.scan")
    assert a.name != b.name
    named = InjectionPoint(site="storage.scan", name="mine")
    assert named.name == "mine"


# -- trigger semantics --------------------------------------------------------


def test_default_trigger_fires_on_every_match():
    plan = FaultPlan([InjectionPoint(site="storage.scan")])
    for _ in range(3):
        with pytest.raises(InjectedFault):
            plan.check("storage.scan", table="T")
    assert plan.n_fired == 3


def test_site_and_table_filters():
    plan = FaultPlan([InjectionPoint(site="storage.scan", table="T")])
    # Wrong site: not even a match.
    plan.check("index.lookup", table="T")
    # Right site, wrong table: filtered out.
    plan.check("storage.scan", table="U")
    assert plan.n_fired == 0
    with pytest.raises(InjectedFault) as info:
        plan.check("storage.scan", table="T")
    assert info.value.site == "storage.scan"
    assert info.value.attrs["table"] == "T"


def test_nth_trigger_is_one_based_and_single_shot():
    point = InjectionPoint(site="storage.page_read", nth=3)
    plan = FaultPlan([point])
    plan.check("storage.page_read", table="T", page_no=0)
    plan.check("storage.page_read", table="T", page_no=1)
    with pytest.raises(InjectedFault):
        plan.check("storage.page_read", table="T", page_no=2)
    # The 4th and later matches never fire again.
    plan.check("storage.page_read", table="T", page_no=3)
    assert plan.n_fired == 1
    assert plan.matches(point) == 4


def test_max_fires_bounds_an_every_match_point():
    plan = FaultPlan([InjectionPoint(site="storage.scan", max_fires=2)])
    for _ in range(2):
        with pytest.raises(InjectedFault):
            plan.check("storage.scan", table="T")
    plan.check("storage.scan", table="T")  # exhausted: passes through
    assert plan.n_fired == 2


def test_probability_trigger_is_deterministic_per_seed():
    def firing_pattern(seed: int) -> list:
        plan = FaultPlan(
            [InjectionPoint(site="index.lookup", probability=0.4, name="p")],
            seed=seed,
        )
        pattern = []
        for i in range(50):
            try:
                plan.check("index.lookup", table="T", probe=i)
                pattern.append(False)
            except InjectedFault:
                pattern.append(True)
        return pattern

    assert firing_pattern(7) == firing_pattern(7)
    assert any(firing_pattern(7))
    # A different seed draws a different sequence (overwhelmingly likely
    # over 50 draws at p=0.4).
    assert firing_pattern(7) != firing_pattern(8)


def test_reset_replays_the_same_firings():
    plan = FaultPlan(
        [InjectionPoint(site="storage.scan", probability=0.5, name="r")],
        seed=11,
    )

    def run() -> list:
        fired = []
        for i in range(20):
            try:
                plan.check("storage.scan", table="T", i=i)
                fired.append(False)
            except InjectedFault:
                fired.append(True)
        return fired

    first = run()
    assert plan.n_fired == sum(first)
    plan.reset()
    assert plan.n_fired == 0 and plan.fired == []
    assert run() == first


def test_fired_events_record_sequence_and_attrs():
    plan = FaultPlan([InjectionPoint(site="storage.scan", name="ev")])
    with pytest.raises(InjectedFault):
        plan.check("storage.scan", table="T")
    event = plan.fired[0]
    assert event.sequence == 1
    assert event.site == "storage.scan"
    assert event.point == "ev"
    assert ("table", "T") in event.attrs
    assert "storage.scan[ev]" in event.describe()


def test_injection_metrics_count_checks_and_firings():
    fresh = MetricsRegistry()
    previous = set_default_registry(fresh)
    try:
        plan = FaultPlan([InjectionPoint(site="storage.scan", nth=2)])
        plan.check("storage.scan", table="T")
        with pytest.raises(InjectedFault):
            plan.check("storage.scan", table="T")
        assert fresh.counter("fault.checks").value == 2
        assert fresh.counter("fault.injections").value == 1
    finally:
        set_default_registry(previous)


# -- spec parsing -------------------------------------------------------------


def test_parse_fault_plan_round_trip():
    plan = parse_fault_plan(
        "storage.page_read:table=ABCD,nth=3;"
        "index.lookup:p=0.05,max_fires=2,name=probe",
        seed=9,
    )
    assert plan.seed == 9
    first, second = plan.points
    assert (first.site, first.table, first.nth) == (
        "storage.page_read", "ABCD", 3,
    )
    assert (second.site, second.probability, second.max_fires, second.name) \
        == ("index.lookup", 0.05, 2, "probe")


@pytest.mark.parametrize(
    "spec, match",
    [
        ("bogus.site:nth=1", "unknown fault site"),
        ("storage.scan:wat=1", "unknown fault option"),
        ("storage.scan:nth", "malformed fault option"),
        ("", "defines no injection points"),
        (";;", "defines no injection points"),
    ],
)
def test_parse_fault_plan_rejects_bad_specs(spec, match):
    with pytest.raises(ValueError, match=match):
        parse_fault_plan(spec)


def test_specs_naming_no_shard_site_or_key_fail_cleanly(capsys):
    """There is no ``shard.exec`` site and no ``shard=`` key: such a spec is
    a ``ValueError`` naming what is valid, and ``repro serve`` reports it
    as a usage error (exit 2) before building anything."""
    from repro.cli import main

    with pytest.raises(ValueError, match="unknown fault site") as bad_site:
        parse_fault_plan("shard.exec:nth=1")
    assert all(site in str(bad_site.value) for site in SITES)
    with pytest.raises(ValueError, match="unknown fault option") as bad_key:
        parse_fault_plan("storage.scan:shard=1")
    assert "(use table, nth, p, max_fires, name)" in str(bad_key.value)
    argv = ["serve", "--faults", "shard.exec:nth=1"]
    assert main([*argv, "--scale", "0.002"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad --faults spec: unknown fault site")


def test_every_site_name_parses():
    for site in SITES:
        plan = parse_fault_plan(f"{site}:nth=1")
        assert plan.points[0].site == site


# -- executor isolation -------------------------------------------------------


def _two_class_setup():
    """A tiny db where tplo builds two classes: one over the X'Y' view
    (coarse query) and one over the XY base (leaf-level query)."""
    db = make_tiny_db(materialized=("X'Y'",))
    coarse = GroupByQuery(
        groupby=GroupBy((1, 1)), predicates=(), aggregate=Aggregate.SUM,
        label="coarse",
    )
    leaf = GroupByQuery(
        groupby=GroupBy((0, 0)), predicates=(), aggregate=Aggregate.SUM,
        label="leaf",
    )
    plan = db.optimize([coarse, leaf], "tplo")
    sources = sorted(c.source for c in plan.classes)
    assert sources == ["XY", "X'Y'"] or sources == ["X'Y'", "XY"]
    assert len(plan.classes) == 2
    return db, plan, coarse, leaf


def test_failing_class_does_not_poison_siblings():
    db, plan, coarse, leaf = _two_class_setup()
    clean = db.execute(plan)
    assert not clean.failures

    db.arm_faults(
        FaultPlan([InjectionPoint(site="storage.page_read", table="X'Y'")])
    )
    try:
        report = db.execute(plan)
    finally:
        db.disarm_faults()

    assert len(report.failures) == 1
    failure = report.failures[0]
    assert isinstance(failure.error, InjectedFault)
    assert failure.qids == [coarse.qid]
    assert report.failed_qids == [coarse.qid]
    # The sibling class is byte-identical to the fault-free run.
    assert report.results[leaf.qid].groups == clean.results[leaf.qid].groups
    assert coarse.qid not in report.results
    # result_for surfaces a descriptive typed error, not a bare KeyError.
    with pytest.raises(PartialResultError, match="failed mid-execution"):
        report.result_for(coarse)
    assert "FAILED" in report.summary()
    # The failed class's partial simulated cost is still accounted.
    assert report.sim_ms >= sum(e.sim.total_ms for e in report.class_executions)


def test_parallel_executor_isolates_failures_identically():
    db, plan, coarse, leaf = _two_class_setup()
    clean = execute_plan(db, plan)
    db.arm_faults(
        FaultPlan([InjectionPoint(site="storage.page_read", table="X'Y'")])
    )
    try:
        report = execute_plan(db, plan)
    finally:
        db.disarm_faults()
    assert [type(f.error) for f in report.failures] == [InjectedFault]
    assert report.failed_qids == [coarse.qid]
    assert report.results[leaf.qid].groups == clean.results[leaf.qid].groups
    with pytest.raises(PartialResultError):
        report.result_for(coarse)


def test_pool_and_rerun_are_coherent_after_a_failure():
    db, plan, coarse, leaf = _two_class_setup()
    clean = db.execute(plan)
    db.arm_faults(
        FaultPlan([InjectionPoint(site="storage.scan", table="XY")])
    )
    try:
        report = db.execute(plan)
    finally:
        db.disarm_faults()
    assert report.failed_qids == [leaf.qid]
    # The buffer pool survived the abort within its capacity...
    assert len(db.pool) <= db.pool.capacity_pages
    # ...and a disarmed re-run is clean and byte-identical.
    again = db.execute(plan)
    assert not again.failures
    for qid in clean.results:
        assert again.results[qid].groups == clean.results[qid].groups


def test_correctness_errors_are_not_swallowed():
    """Only InjectedFault is isolated per class; any other error raised
    mid-execution must still abort the whole run."""
    db, plan, coarse, leaf = _two_class_setup()
    from repro.check import CorrectnessError

    class EvilPlan:
        """Quacks like a FaultPlan but raises a *real* engine error."""

        def check(self, site, **attrs):
            raise CorrectnessError("real bug, must propagate")

    db.arm_faults(EvilPlan())
    try:
        with pytest.raises(CorrectnessError, match="must propagate"):
            db.execute(plan)
    finally:
        db.disarm_faults()
