"""Executor-mode parity: there is one plan executor, and what it computes
must not depend on how its (class × shard) grid is shaped or scheduled.

One table drives everything: the paper's Tests 1–7 under every shared-plan
optimizer, each plan executed in every mode of the ``modes`` fixture.  They
must be snapshot-identical — same groups in the same order, same per-class
``IOStats``, same ``OperatorActuals`` (a DAG class's intermediate
included) — and a 4-shard run must equal the brute-force reference
(:func:`repro.check.reference_answer`) group for group.  The reference is
the one definition of what a batch means; no second production path is
kept around as an oracle.
"""

import pytest

from repro.check import first_divergence, reference_answer
from repro.core.executor import execute_plan
from repro.faults import SITES, FaultPlan, InjectedFault, InjectionPoint
from repro.workload.paper_queries import ALL_PAPER_TESTS, paper_queries
from repro.workload.paper_schema import PaperConfig, build_paper_database

ALGORITHMS = ("tplo", "etplg", "gg", "bgg", "dag")


@pytest.fixture(scope="module")
def db():
    return build_paper_database(config=PaperConfig(scale=0.002))


@pytest.fixture(scope="module")
def qs(db):
    return paper_queries(db.schema)


@pytest.fixture(scope="module")
def modes(db):
    """Execution modes that must be indistinguishable from the outside."""
    return {
        "n_workers=1": {"n_workers": 1},
        "n_workers=4": {"n_workers": 4},
        "one shard": {"n_workers": 1, "shard_set": db.build_shards(1)},
    }


@pytest.fixture(scope="module")
def four_shards(db):
    return db.build_shards(4)


def snapshot(report):
    """Everything that must match between modes.  The same plan object runs
    in every mode, so qids key the snapshots directly; group *order* is
    part of the contract (lists, not dicts)."""
    return {
        "failed": report.failed_qids,
        "groups": {
            qid: list(result.groups.items())
            for qid, result in report.results.items()
        },
        "sims": [e.sim.as_dict() for e in report.class_executions],
        "actuals": [e.actuals.as_dict() for e in report.class_executions],
        "sim_ms": report.sim_ms,
    }


@pytest.mark.parametrize("test_name", sorted(ALL_PAPER_TESTS))
def test_paper_workload_byte_identical(db, qs, modes, four_shards, test_name):
    batch = [qs[i] for i in ALL_PAPER_TESTS[test_name]]
    truth = {q.qid: reference_answer(db, q).groups for q in batch}
    for algorithm in ALGORITHMS:
        plan = db.optimize(batch, algorithm)
        snaps = {
            name: snapshot(execute_plan(db, plan, **options))
            for name, options in modes.items()
        }
        first = next(iter(snaps))
        assert not snaps[first]["failed"]
        for name, snap in snaps.items():
            assert snap == snaps[first], (
                f"{test_name}/{algorithm}: {name!r} diverged from "
                f"{first!r} on "
                + ", ".join(k for k in snap if snap[k] != snaps[first][k])
            )
        sharded = execute_plan(db, plan, n_workers=4, shard_set=four_shards)
        for query in batch:
            divergence = first_divergence(
                truth[query.qid], sharded.result_for(query).groups
            )
            assert divergence is None, (
                f"{test_name}/{algorithm} at 4 shards, "
                f"{query.display_name()}: {divergence.describe()}"
            )


@pytest.mark.parametrize("site", SITES)
def test_fault_injection_parity(db, qs, modes, site):
    """A single-shot fault at each site fails the same queries and leaves
    the same surviving groups whether the plan runs unsharded or over one
    shard, and never escapes as anything but a class failure.  The
    exception proves the rule: ``shard.exec`` exists only on the sharded
    grid, where it takes down exactly the first class."""
    workloads = [("test6", "gg"), ("test1", "dag")]  # probes; derive steps
    n_fired = 0
    for test_name, algorithm in workloads:
        plan = db.optimize(
            [qs[i] for i in ALL_PAPER_TESTS[test_name]], algorithm
        )
        outcomes = {}
        for name in ("n_workers=1", "one shard"):
            fault = FaultPlan([InjectionPoint(site=site, nth=1)], seed=7)
            db.arm_faults(fault)
            try:
                report = execute_plan(db, plan, **modes[name])
            finally:
                db.disarm_faults()
            assert all(
                isinstance(f.error, InjectedFault) for f in report.failures
            )
            outcomes[name] = {
                "n_fired": fault.n_fired,
                "failed": report.failed_qids,
                "surviving": {
                    qid: list(result.groups.items())
                    for qid, result in report.results.items()
                },
            }
        unsharded, sharded = outcomes["n_workers=1"], outcomes["one shard"]
        if site == "shard.exec":
            assert unsharded["n_fired"] == 0 and not unsharded["failed"]
            assert sharded["failed"] == sorted(
                q.qid for q in plan.classes[0].queries
            )
        else:
            assert unsharded == sharded, f"site {site}, {test_name}"
        n_fired += sharded["n_fired"]
    assert n_fired > 0, f"no workload reaches site {site}"


def test_cold_runs_leave_the_database_pool_alone(db, qs):
    """Cold cells run in private pools; only ``cold=False`` touches (and
    benefits from) the database's own."""
    plan = db.optimize([qs[i] for i in ALL_PAPER_TESTS["test1"]], "gg")
    db.flush()
    cold = execute_plan(db, plan)
    assert len(db.pool) == 0
    first_warm = execute_plan(db, plan, cold=False)
    assert len(db.pool) > 0
    assert first_warm.sim_io_ms == cold.sim_io_ms  # started from empty
    again_warm = execute_plan(db, plan, cold=False)
    assert again_warm.sim_io_ms < cold.sim_io_ms
    with pytest.raises(ValueError, match="cold"):
        execute_plan(db, plan, cold=False, shard_set=db.build_shards(1))
