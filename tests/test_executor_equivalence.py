"""Executor parity: there is one plan executor, and what it computes
must equal the brute-force reference.

One table drives everything: the paper's Tests 1–7 under every shared-plan
optimizer, each plan executed once.  Every answer must equal the
brute-force reference (:func:`repro.check.reference_answer`) group for
group.  The reference is the one definition of what a batch means; no
second production path is kept around as an oracle.
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


@pytest.mark.parametrize("test_name", sorted(ALL_PAPER_TESTS))
def test_paper_workload_byte_identical(db, qs, test_name):
    batch = [qs[i] for i in ALL_PAPER_TESTS[test_name]]
    truth = {q.qid: reference_answer(db, q).groups for q in batch}
    for algorithm in ALGORITHMS:
        report = execute_plan(db, db.optimize(batch, algorithm))
        assert not report.failures
        for query in batch:
            divergence = first_divergence(
                truth[query.qid], report.result_for(query).groups
            )
            assert divergence is None, (
                f"{test_name}/{algorithm}, "
                f"{query.display_name()}: {divergence.describe()}"
            )


@pytest.mark.parametrize("site", SITES)
def test_fault_injection_parity(db, qs, site):
    """A single-shot fault at each site fails whole classes only, never
    escapes as anything but a class failure, and leaves the surviving
    groups exactly as a fault-free run computes them."""
    workloads = [("test6", "gg"), ("test1", "dag")]  # probes; derive steps
    n_fired = 0
    for test_name, algorithm in workloads:
        plan = db.optimize(
            [qs[i] for i in ALL_PAPER_TESTS[test_name]], algorithm
        )
        clean = execute_plan(db, plan).results
        fault = FaultPlan([InjectionPoint(site=site, nth=1)], seed=7)
        db.arm_faults(fault)
        try:
            report = execute_plan(db, plan)
        finally:
            db.disarm_faults()
        assert all(isinstance(f.error, InjectedFault) for f in report.failures)
        assert bool(report.failures) == bool(fault.n_fired), (
            f"site {site}, {test_name}"
        )
        assert sorted([*report.results, *report.failed_qids]) == sorted(clean)
        for qid, result in report.results.items():
            assert list(result.groups.items()) == list(
                clean[qid].groups.items()
            ), f"site {site}, {test_name}, qid {qid}"
        n_fired += fault.n_fired
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
