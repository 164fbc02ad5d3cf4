"""A state machine over the one front door: batches asked through
``Database.run_queries`` and a ``QuerySession`` while rows are appended (via
the database and behind its back), single-shot faults are armed and
disarmed, and the result cache comes and goes.  After every batch, the
batch contract (``repro.check.check_batch``) holds at that batch's
``data_version``, and a cache keeps nothing from a batch that failed.

Every other test checks a static database; this one interleaves.  The
bounded run is tier-1; ``--hypothesis-profile long`` (tests/conftest.py)
explores further.  Two planted mutations — a cache that never changes epoch
and an executor that drops a class failure — must fail the bounded run.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, Phase, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.check import CorrectnessError, PlanCoverageError, check_batch
from repro.core import executor
from repro.engine import maintenance
from repro.engine.result_cache import ResultCache, attach_cache
from repro.engine.session import QuerySession
from repro.faults import (
    SITES,
    FaultPlan,
    InjectedFault,
    InjectionPoint,
    PartialResultError,
)
from repro.workload.generator import generate_fact_rows

from helpers import make_tiny_db, random_query

#: The tier-1 run: deterministic, ~1 s on a 2-core machine.  At this budget
#: each planted mutation below failed 58-60 of 60 *randomized* runs.
BOUNDED = settings(
    max_examples=60,
    stateful_step_count=20,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def machine_settings() -> settings:
    """The bounded run, unless ``--hypothesis-profile long`` is loaded."""
    if settings.get_current_profile_name() == "long":
        return settings()
    return BOUNDED


class BatchMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.db = make_tiny_db(n_rows=200, materialized=("X'Y'",))
        attach_cache(self.db)

    # -- what changes between batches ----------------------------------------

    @rule(
        n_rows=st.integers(1, 30),
        seed=st.integers(0, 2**16),
        direct=st.booleans(),
    )
    def append(self, n_rows, seed, direct):
        rows = generate_fact_rows(self.db.schema, n_rows, seed=seed)
        if direct:
            maintenance.append_rows(self.db, rows)
        else:
            self.db.append_rows(rows)

    @rule(site=st.sampled_from(SITES), nth=st.integers(1, 3))
    def arm(self, site, nth):
        self.db.arm_faults(
            FaultPlan([InjectionPoint(site=site, nth=nth)], seed=nth)
        )

    @precondition(lambda self: self.db.faults is not None)
    @rule()
    def disarm(self):
        self.db.disarm_faults()

    @precondition(lambda self: self.db.result_cache is None)
    @rule()
    def attach(self):
        attach_cache(self.db)

    @precondition(lambda self: self.db.result_cache is not None)
    @rule()
    def detach(self):
        self.db.result_cache = None

    # -- the batch, through both doors ---------------------------------------

    @rule(
        # A few batches, asked again and again: repeats are what reach the
        # cache across appends.
        seed=st.integers(0, 1),
        algorithm=st.sampled_from(("tplo", "gg", "dag")),
    )
    def ask(self, seed, algorithm):
        rng = random.Random(seed)
        batch = [random_query(self.db.schema, rng) for _ in range(1 + seed)]
        version, retained = self.db.data_version, self.n_retained()
        report = self.db.run_queries(batch, algorithm)
        assert self.db.data_version == version
        check_batch(self.db, batch, report.results, report.failures)
        if report.failures:
            assert self.n_retained() == retained, "retained a failed batch"

        retained = self.n_retained()
        try:
            session = QuerySession(self.db, algorithm).add_queries(batch).run()
        except PartialResultError as exc:
            assert isinstance(exc.__cause__, InjectedFault), exc
            assert self.n_retained() == retained, "retained a failed batch"
        else:
            check_batch(self.db, batch, session.results)
        assert self.db.data_version == version

    @initialize()
    def warm(self):
        """Every run starts from one answered batch: the cache holds
        something that the first append makes stale."""
        self.ask(0, "gg")

    def n_retained(self) -> int:
        cache = self.db.result_cache
        return -1 if cache is None else len(cache)


def test_the_batch_contract_holds_through_every_interleaving():
    run_state_machine_as_test(BatchMachine, settings=machine_settings())


def stale_cache_epoch(monkeypatch):
    monkeypatch.setattr(ResultCache, "sync", lambda self, data_version: None)


def swallowed_fault(monkeypatch):
    fold = executor._fold_class

    def fold_dropping_failures(db, report, cells, **options):
        fold(db, report, cells, **options)
        report.failures.clear()

    monkeypatch.setattr(executor, "_fold_class", fold_dropping_failures)


@pytest.mark.parametrize("plant", [stale_cache_epoch, swallowed_fault])
def test_a_planted_mutation_fails_the_bounded_run(monkeypatch, plant):
    """The same example budget as the tier-1 run; no shrinking (only that
    it fails is asked here)."""
    plant(monkeypatch)
    unshrunk = settings(BOUNDED, phases=(Phase.explicit, Phase.generate))
    with pytest.raises((CorrectnessError, PlanCoverageError)):
        run_state_machine_as_test(BatchMachine, settings=unshrunk)
