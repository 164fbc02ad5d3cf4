"""Unit tests for the ``repro.serve`` subsystem.

Covers the batching policy (config validation, cross-request dedup),
futures (single assignment, wait timeouts), admission backpressure,
queued-request deadlines, shutdown semantics, error routing, the plan
executor's worker-count edge cases, and the satellite
duplicate-query-coalescing scenario: many concurrent clients with
overlapping query sets must yield one planned instance per distinct query
while every client still gets its own correct results.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import InvalidStateError

import pytest

from repro.core.executor import execute_plan, run_class_accounted
from repro.schema.query import DimPredicate, GroupBy, GroupByQuery
from repro.serve import (
    AdmissionError,
    DeadlineExceeded,
    QueryService,
    ServeConfig,
    ServeFuture,
    ServeResponse,
    ServiceStopped,
    assemble_batch,
)
from repro.serve.batching import ServeRequest

from helpers import make_tiny_db


@pytest.fixture()
def db():
    return make_tiny_db(n_rows=200, index_tables=("XY",))


def make_query(member: int, levels=(1, 1)) -> GroupByQuery:
    """Semantic identity is per ``(levels, member)``; qids stay unique."""
    return GroupByQuery(
        groupby=GroupBy(levels),
        predicates=(DimPredicate(0, 0, frozenset({member}),),),
        label=f"m{member}",
    )


def make_request(request_id: int, queries, deadline_s=None) -> ServeRequest:
    return ServeRequest(
        request_id=request_id,
        queries=list(queries),
        future=ServeFuture(request_id),
        submitted_s=time.monotonic(),
        deadline_s=deadline_s,
    )


class TestServeConfig:
    def test_defaults_are_valid(self):
        config = ServeConfig()
        assert config.window_ms == 10.0
        assert config.cold

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window_ms": -1.0},
            {"max_batch_requests": 0},
            {"max_queue_depth": 0},
            {"n_workers": 0},
            {"default_deadline_ms": 0.0},
            {"default_deadline_ms": -5.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ServeConfig(**kwargs)


class TestAssembleBatch:
    def test_duplicates_collapse_across_requests(self):
        r1 = make_request(1, [make_query(0), make_query(1)])
        r2 = make_request(2, [make_query(1), make_query(2)])
        r3 = make_request(3, [make_query(0)])
        batch = assemble_batch(7, [r1, r2, r3])
        assert batch.batch_id == 7
        assert batch.n_requests == 3
        assert batch.n_submitted == 5
        assert batch.n_distinct == 3
        assert batch.n_duplicates_eliminated == 2
        assert batch.coalesce_ratio == pytest.approx(5 / 3)

    def test_first_submission_is_canonical(self):
        first = make_query(0)
        second = make_query(0)
        batch = assemble_batch(
            1, [make_request(1, [first]), make_request(2, [second])]
        )
        assert batch.distinct == [first]
        (key,) = batch.members
        assert [query.qid for _, query in batch.members[key]] == [
            first.qid,
            second.qid,
        ]

    def test_no_overlap_means_ratio_one(self):
        batch = assemble_batch(
            1,
            [make_request(1, [make_query(0)]), make_request(2, [make_query(1)])],
        )
        assert batch.n_duplicates_eliminated == 0
        assert batch.coalesce_ratio == 1.0


class TestServeFuture:
    def test_single_assignment(self):
        future = ServeFuture(1)
        future.set_result(ServeResponse(request_id=1))
        with pytest.raises(InvalidStateError):
            future.set_result(ServeResponse(request_id=1))
        with pytest.raises(InvalidStateError):
            future.set_exception(RuntimeError("late"))

    def test_result_raises_stored_exception(self):
        future = ServeFuture(2)
        future.set_exception(DeadlineExceeded("too slow"))
        assert not isinstance(future.exception(), AdmissionError)
        with pytest.raises(DeadlineExceeded):
            future.result()

    def test_wait_timeout_leaves_future_pending(self):
        future = ServeFuture(3)
        with pytest.raises(TimeoutError):
            future.result(timeout=0.01)
        assert not future.done()
        future.set_result(ServeResponse(request_id=3))
        assert future.result(timeout=0.01).request_id == 3


class TestSubmission:
    def test_empty_request_rejected(self, db):
        service = QueryService(db)
        with pytest.raises(ValueError):
            service.submit([])

    def test_malformed_query_fails_fast(self, db):
        service = QueryService(db)
        bad = GroupByQuery(groupby=GroupBy((99, 99)))
        with pytest.raises(Exception):
            service.submit([bad])
        assert service.stats.n_admitted == 0

    def test_backpressure_rejects_at_depth_bound(self, db):
        service = QueryService(db, ServeConfig(max_queue_depth=2))
        service.submit([make_query(0)])
        service.submit([make_query(1)])
        with pytest.raises(AdmissionError):
            service.submit([make_query(2)])
        assert service.stats.n_rejected == 1
        assert service.stats.n_admitted == 2
        # Admitted requests are still answered once the scheduler runs.
        service.start()
        service.stop(drain=True)
        assert service.stats.n_served == 2

    def test_submit_after_stop_raises(self, db):
        service = QueryService(db)
        service.start()
        service.stop()
        with pytest.raises(ServiceStopped):
            service.submit([make_query(0)])


class TestDeadlines:
    def test_expired_queued_request_fails_unexecuted(self, db):
        service = QueryService(db, ServeConfig(window_ms=1.0))
        future = service.submit([make_query(0)], deadline_ms=1.0)
        time.sleep(0.02)  # deadline passes while the scheduler is not running
        service.start()
        with pytest.raises(DeadlineExceeded):
            future.result(timeout=10.0)
        service.stop()
        assert service.stats.n_timed_out == 1
        assert service.stats.n_served == 0

    def test_generous_deadline_is_met(self, db):
        with db.serve(window_ms=1.0, default_deadline_ms=30_000.0) as service:
            future = service.submit([make_query(0)])
            response = future.result(timeout=30.0)
        assert response.n_queries == 1


class TestShutdown:
    def test_stop_without_drain_fails_queued_requests(self, db):
        service = QueryService(db)
        future = service.submit([make_query(0)])
        service.stop(drain=False)
        with pytest.raises(ServiceStopped):
            future.result(timeout=5.0)

    def test_stop_with_drain_answers_queued_requests(self, db):
        service = QueryService(db, ServeConfig(window_ms=1.0))
        futures = [service.submit([make_query(member)]) for member in (0, 1)]
        service.start()
        service.stop(drain=True)
        for future in futures:
            assert future.result(timeout=5.0).n_queries == 1


class TestErrorRouting:
    def test_batch_failure_reaches_every_caller(self, db, monkeypatch):
        def broken_optimize(queries, algorithm="gg"):
            raise RuntimeError("optimizer exploded")

        monkeypatch.setattr(db, "optimize", broken_optimize)
        service = QueryService(db, ServeConfig(window_ms=1.0))
        futures = [service.submit([make_query(member)]) for member in (0, 1)]
        service.start()
        try:
            for future in futures:
                with pytest.raises(RuntimeError, match="optimizer exploded"):
                    future.result(timeout=10.0)
        finally:
            service.stop()
        assert service.stats.n_failed == 2
        assert service.stats.n_served == 0


class TestDuplicateCoalescing:
    """Satellite: N concurrent clients with overlapping query sets."""

    N_CLIENTS = 8
    MEMBERS = (0, 1, 2)  # every client asks these three, plus one of its own

    def test_one_planned_instance_per_distinct_query(self, db):
        # Expected groups per member, from serial single-query runs.
        expected = {}
        for member in set(self.MEMBERS) | set(range(3, 3 + self.N_CLIENTS)):
            query = make_query(member)
            expected[member] = db.run_queries([query], "gg").result_for(query)

        service = QueryService(
            db,
            ServeConfig(
                window_ms=50.0,
                max_batch_requests=self.N_CLIENTS,
                max_queue_depth=self.N_CLIENTS,
            ),
        )
        client_queries = {}
        futures = {}
        lock = threading.Lock()

        def client(client_id: int) -> None:
            queries = [make_query(member) for member in self.MEMBERS]
            queries.append(make_query(3 + client_id))  # private query
            future = service.submit(queries, client=f"c{client_id}")
            with lock:
                client_queries[client_id] = queries
                futures[client_id] = future

        threads = [
            threading.Thread(target=client, args=(client_id,))
            for client_id in range(self.N_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # The whole burst is queued: one batch, maximal coalescing.
        service.start()
        try:
            responses = {
                client_id: future.result(timeout=60.0)
                for client_id, future in futures.items()
            }
        finally:
            service.stop()

        n_distinct = len(self.MEMBERS) + self.N_CLIENTS
        n_submitted = self.N_CLIENTS * (len(self.MEMBERS) + 1)
        stats = service.stats
        assert stats.n_batches == 1
        assert stats.n_queries_submitted == n_submitted
        # One planned instance per distinct query, no matter how many
        # clients asked it (cache hits also count as "not re-planned").
        assert stats.n_queries_planned + stats.n_cache_hits == n_distinct
        assert stats.n_duplicates_eliminated == n_submitted - n_distinct
        assert stats.coalesce_ratio == pytest.approx(n_submitted / n_distinct)

        for client_id, response in responses.items():
            queries = client_queries[client_id]
            assert set(response.results) == {q.qid for q in queries}
            for query in queries:
                member = next(iter(query.predicates[0].member_ids))
                got = response.result_for(query)
                want = expected[member]
                assert set(got.groups) == set(want.groups)
                for group, value in want.groups.items():
                    assert got.groups[group] == pytest.approx(value)

    def test_responses_do_not_share_mutable_state(self, db):
        service = QueryService(db, ServeConfig(window_ms=20.0))
        query_a, query_b = make_query(0), make_query(0)
        future_a = service.submit([query_a])
        future_b = service.submit([query_b])
        service.start()
        try:
            result_a = future_a.result(timeout=30.0).result_for(query_a)
            result_b = future_b.result(timeout=30.0).result_for(query_b)
        finally:
            service.stop()
        key = sorted(result_a.groups)[0]
        clean = result_b.groups[key]
        result_a.groups[key] += 1e6
        assert result_b.groups[key] == pytest.approx(clean)


class TestParallelExecutor:
    def queries(self):
        return [
            GroupByQuery(groupby=GroupBy((1, 1)), label="a"),
            GroupByQuery(
                groupby=GroupBy((0, 1)),
                predicates=(DimPredicate(1, 1, frozenset({0, 1})),),
                label="b",
            ),
            GroupByQuery(groupby=GroupBy((2, 0)), label="c"),
        ]

    def test_single_worker_path(self, db):
        """n_workers=1 spawns no thread pool: every cell runs inline on
        the calling thread (n_workers=4 equivalence lives in
        test_executor_equivalence.py)."""
        plan = db.optimize(self.queries(), "naive")
        assert len(plan.classes) > 1
        with db.trace():
            report = execute_plan(db, plan, n_workers=1)
        assert not report.failures
        spans = db.last_trace.find_all("execute.class")
        assert len(spans) == len(plan.classes)
        assert {s.thread for s in spans} == {threading.current_thread().name}

    def test_empty_plan(self, db):
        from repro.core.optimizer.plans import GlobalPlan

        report = execute_plan(db, GlobalPlan(algorithm="gg"), n_workers=4)
        assert report.results == {}

    def test_rejects_nonpositive_workers(self, db):
        plan = db.optimize(self.queries(), "gg")
        with pytest.raises(ValueError):
            execute_plan(db, plan, n_workers=0)

    def test_operator_spans_charge_their_cells_clock(self, db):
        """A span opened inside a worker cell charges the cell's private
        clock: every ``operator.*`` span's sim equals its cell's."""
        plan = db.optimize(self.queries(), "naive")
        with db.trace():
            execute_plan(db, plan, n_workers=4)
        cells = db.last_trace.find_all("execute.class")
        assert len(cells) == len(plan.classes) > 1
        for cell in cells:
            [operator] = cell.children
            assert operator.name.startswith("operator.")
            assert operator.sim.as_dict() == cell.sim.as_dict()

    def test_isolated_class_charges_nothing_to_shared_clock(self, db):
        plan = db.optimize(self.queries(), "gg")
        before = db.stats.snapshot()
        ctx = db.ctx(private=True)
        run_class_accounted(ctx, plan.classes[0])
        assert db.stats.snapshot() == before
        assert ctx.stats.total_ms > 0.0


class TestDatabaseServe:
    def test_serve_builds_configured_service(self, db):
        service = db.serve(window_ms=3.0, n_workers=2)
        assert isinstance(service, QueryService)
        assert service.config.window_ms == 3.0
        assert service.config.n_workers == 2
        assert not service.running

    def test_serve_round_trip_with_paranoia(self, db):
        db.paranoia = True
        with db.serve(window_ms=1.0) as service:
            query = make_query(1)
            response = service.submit([query]).result(timeout=60.0)
        assert response.result_for(query).groups

    def test_submit_mdx_answers_as_run_mdx(self):
        """The paper's Section 2 SalesCube MDX through the service gets the
        answers ``run_mdx`` gets, component query by component query."""
        from repro.workload.sales_demo import SECTION2_MDX, build_sales_database

        db = build_sales_database(n_rows=2_000)
        expected = db.run_mdx(SECTION2_MDX).results
        with db.serve(window_ms=1.0) as service:
            served = service.submit_mdx(SECTION2_MDX).result(timeout=60.0)
        assert len(served.results) == len(expected) > 1
        assert [served.results[q].groups for q in sorted(served.results)] == [
            expected[q].groups for q in sorted(expected)
        ]


class TestServiceStatsThreadSafety:
    """Regression: the scheduler thread mutates ServiceStats while report
    readers (simulation loop, operators) read it — counters must never
    tear and snapshots must be internally consistent."""

    def test_concurrent_records_are_exact(self):
        from repro.obs.metrics import MetricsRegistry, set_default_registry
        from repro.serve import ServiceStats

        registry = MetricsRegistry()
        previous = set_default_registry(registry)
        try:
            stats = ServiceStats()
        finally:
            set_default_registry(previous)
        n_threads, n_iterations = 8, 400

        def hammer():
            for _ in range(n_iterations):
                stats.add(n_served=1, n_admitted=2, sim_ms_total=0.5)

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        total = n_threads * n_iterations
        assert stats.n_served == total
        assert stats.n_admitted == 2 * total
        assert stats.sim_ms_total == pytest.approx(0.5 * total)
        # Each add moved the field and its counter together.
        assert registry.get("serve.requests_served").value == total
        assert registry.get("serve.requests_admitted").value == 2 * total

    def test_snapshot_never_observes_torn_counts(self):
        from repro.serve import ServiceStats

        stats = ServiceStats()
        stop = threading.Event()
        torn = []

        def writer():
            while not stop.is_set():
                # One atomic record: the two counters move in lockstep.
                stats.add(n_served=1, n_batches=1)

        def reader():
            for _ in range(2000):
                snap = stats.snapshot()
                if snap.n_served != snap.n_batches:
                    torn.append((snap.n_served, snap.n_batches))

        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        try:
            reader()
        finally:
            stop.set()
            writer_thread.join()
        assert not torn

    def test_snapshot_is_detached(self):
        from repro.serve import ServiceStats

        stats = ServiceStats()
        stats.add(n_served=3)
        snap = stats.snapshot()
        stats.add(n_served=4)
        assert snap.n_served == 3
        assert stats.n_served == 7


class TestFanOutDeepCopy:
    """Regression: fan-out used to hand duplicate requests shallow-ish
    copies of the canonical result — a caller mutating its response could
    corrupt what the result cache replays to later requests."""

    def test_caller_mutation_cannot_poison_the_cache(self, db):
        from repro.engine.result_cache import attach_cache

        cache = attach_cache(db)
        service = QueryService(db, ServeConfig(window_ms=20.0))
        first = make_query(2)
        future = service.submit([first])
        service.start()
        try:
            result = future.result(timeout=30.0).result_for(first)
            key = sorted(result.groups)[0]
            clean = result.groups[key]
            # Caller scribbles over its copy of the response.
            result.groups[key] += 1e6
            result.groups["bogus"] = -1.0
            # A later semantically-identical query replays from the cache.
            again = make_query(2)
            replay = service.submit([again]).result(timeout=30.0)
            replayed = replay.result_for(again)
        finally:
            service.stop()
        assert cache.stats.hits >= 1
        assert "bogus" not in replayed.groups
        assert replayed.groups[key] == pytest.approx(clean)

    def test_detached_results_share_nothing(self, db):
        query = make_query(3)
        plan = db.optimize([query], "gg")
        report = execute_plan(db, plan, n_workers=4)
        original = report.result_for(query)
        twin = make_query(3)
        copy = original.detached(query=twin)
        assert copy.query is twin
        assert copy.groups == original.groups
        assert copy.groups is not original.groups
        key = sorted(copy.groups)[0]
        copy.groups[key] += 1.0
        assert original.groups[key] == pytest.approx(copy.groups[key] - 1.0)
