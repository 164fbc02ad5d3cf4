"""The concurrent query service: admission, scheduling, and fan-out.

A :class:`QueryService` is the first concurrency layer over the engine.
Clients on any thread submit group-by batches (or MDX text) and immediately
get a :class:`~repro.serve.futures.ServeFuture`; a single scheduler thread
owns the engine and turns the arrival stream into micro-batches:

1. **Admission** — a bounded queue; a full queue rejects at the door
   (:class:`~repro.serve.futures.AdmissionError`), which is the service's
   backpressure signal.
2. **Micro-batching** — everything arriving within ``window_ms`` of the
   batch's first request (capped at ``max_batch_requests``) is coalesced
   (:func:`repro.engine.session.coalesce`): duplicate queries across
   clients collapse to one instance.
3. **Answering** — the distinct set goes through the one front door,
   :meth:`Database.run_queries <repro.engine.database.Database.run_queries>`
   (cache, planning, validation, retention: ``docs/architecture.md``
   §"Answering a batch"), as *one* global plan — so the paper's shared
   star-join operators share work across sessions, not just within one
   MDX expression — whose classes run concurrently on ``n_workers``
   threads, byte-identical to serial single-session execution.
4. **Recovery** — an execution that loses classes to injected faults is
   re-asked through the same door for the failed queries only (bounded
   retry, simulated backoff), then per query against the raw base table;
   what still fails is quarantined per request (``docs/resilience.md``).
5. **Fan-out** — per-query results (deep copies via
   :meth:`~repro.core.operators.results.QueryResult.detached`, never
   shared mutable state) and errors are routed back to each waiting
   caller's future, with per-request deadlines enforced while queued.

With ``ServeConfig(shards=N)`` step 3's execution becomes scatter-gather:
the one global plan fans out over N hash partitions of the data
(:mod:`repro.serve.shard`) and partial aggregates merge back per class.

Only the scheduler thread touches the database, so the engine itself needs
no locking beyond the storage counters the executor's workers merge.
:class:`ServiceStats` is the exception — client threads bump admission
counters while the scheduler bumps the rest — so all its mutations go
through one lock and readers take :meth:`ServiceStats.snapshot`.
"""

from __future__ import annotations

import dataclasses
import itertools
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from ..core.operators.results import QueryResult
from ..engine.database import Database
from ..faults import InjectedFault
from ..obs.metrics import default_registry
from ..obs.recorder import FlightRecorder
from ..obs.trace import NULL_TRACER, Span, Tracer
from ..schema.query import GroupByQuery
from .batching import MicroBatch, ServeConfig, ServeRequest, assemble_batch
from .futures import (
    AdmissionError,
    DeadlineExceeded,
    RequestQuarantined,
    ServeFuture,
    ServeResponse,
    ServiceStopped,
    StageTiming,
)
from .retry import RetryExhausted, RetryPolicy, SimulatedClock, call_with_retry

#: How often the idle scheduler wakes to check for shutdown.
_POLL_S = 0.02


#: ``ServiceStats`` counter field -> (metric name, help).  One table, and
#: :meth:`QueryService._count` writes both ledgers from it, so the stats
#: object and the metrics registry cannot drift.
_COUNTERS = {
    "n_admitted": (
        "serve.requests_admitted", "requests accepted into the queue"
    ),
    "n_rejected": (
        "serve.requests_rejected", "requests refused by backpressure"
    ),
    "n_timed_out": (
        "serve.requests_timed_out", "requests whose deadline expired queued"
    ),
    "n_failed": ("serve.requests_failed", "requests failed by a batch error"),
    "n_quarantined": (
        "serve.requests_quarantined",
        "requests failed alone after retries and degradation",
    ),
    "n_served": ("serve.requests_served", "requests answered with results"),
    "n_batches": ("serve.batches", "micro-batches executed"),
    "n_retries": (
        "serve.execution_retries",
        "batch executions re-attempted after a class failure",
    ),
    "n_degraded": (
        "serve.degraded_queries",
        "queries answered by the per-query raw-base-table fallback",
    ),
    "n_queries_submitted": (
        "serve.queries_submitted", "component queries submitted"
    ),
    "n_queries_planned": (
        "serve.queries_planned", "distinct queries planned and executed"
    ),
    "n_cache_hits": (
        "serve.cache_hits", "queries answered from the result cache"
    ),
    "n_duplicates_eliminated": (
        "serve.duplicates_eliminated",
        "duplicate query evaluations avoided by coalescing",
    ),
}


@dataclass
class ServiceStats:
    """Cumulative accounting of one service's lifetime.

    Written from two sides — :meth:`QueryService.submit` runs on client
    threads (admission counters) while the scheduler thread owns the rest
    — and read from arbitrary threads for live reporting, so every
    mutation goes through :meth:`record` / :meth:`record_batch` under one
    internal lock, and reporting reads a consistent :meth:`snapshot`
    rather than the live object (a torn read could pair a bumped
    ``n_batches`` with a not-yet-bumped ``sim_ms_total``).
    """

    n_admitted: int = 0
    n_rejected: int = 0
    n_timed_out: int = 0
    n_failed: int = 0
    n_quarantined: int = 0
    n_served: int = 0
    n_batches: int = 0
    #: Executions retried after a fault-injected class failure.
    n_retries: int = 0
    #: Queries answered by the degraded raw-base-table fallback.
    n_degraded: int = 0
    n_queries_submitted: int = 0
    n_queries_planned: int = 0
    n_cache_hits: int = 0
    n_duplicates_eliminated: int = 0
    #: Simulated cost actually charged by batch executions.
    sim_ms_total: float = 0.0
    #: Requests per executed batch, in execution order.
    batch_sizes: List[int] = field(default_factory=list)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def record(self, **deltas: float) -> None:
        """Atomically add ``deltas`` to the named counter fields."""
        with self._lock:
            for name, delta in deltas.items():
                setattr(self, name, getattr(self, name) + delta)

    def record_batch(self, n_requests: int) -> None:
        """Append one executed batch's request count."""
        with self._lock:
            self.batch_sizes.append(n_requests)

    def snapshot(self) -> "ServiceStats":
        """A consistent point-in-time copy (own lock, own batch list)."""
        with self._lock:
            return dataclasses.replace(
                self, batch_sizes=list(self.batch_sizes)
            )

    @property
    def coalesce_ratio(self) -> float:
        """Submitted queries per planned query, cache hits excluded from
        the denominator (1.0 = no cross-session sharing at all)."""
        with self._lock:
            denominator = self.n_queries_planned + self.n_cache_hits
            return (
                self.n_queries_submitted / denominator if denominator else 1.0
            )


class _Stages:
    """Per-batch stage-latency accumulator (scheduler-thread-only).

    Each named stage accumulates wall milliseconds and simulated cost
    milliseconds across however many times it runs within one batch (a
    retried execution adds to ``plan``/``execute`` once per attempt).  The
    scheduler folds the totals into ``serve.stage.*`` histograms and every
    member request's :attr:`~repro.serve.futures.ServeResponse.stages` at
    fan-out.  Not thread-safe by design: only the scheduler thread writes
    it, and it dies with its batch.
    """

    __slots__ = ("_timings",)

    def __init__(self) -> None:
        self._timings: Dict[str, "tuple[float, float]"] = {}

    def add(self, name: str, wall_ms: float = 0.0, sim_ms: float = 0.0) -> None:
        """Accumulate one stage run's cost on both clocks."""
        wall, sim = self._timings.get(name, (0.0, 0.0))
        self._timings[name] = (wall + wall_ms, sim + sim_ms)

    def timings(self) -> Dict[str, StageTiming]:
        """The accumulated totals as immutable per-stage timings."""
        return {
            name: StageTiming(name=name, wall_ms=wall, sim_ms=sim)
            for name, (wall, sim) in self._timings.items()
        }


class QueryService:
    """Accepts concurrent query requests and serves them in micro-batches.

    Usage::

        service = QueryService(db, ServeConfig(window_ms=5.0))
        with service:                       # starts the scheduler thread
            future = service.submit(queries)
            response = future.result(timeout=10.0)
            response.result_for(queries[0])

    Requests may also be submitted *before* :meth:`start` — they queue up
    (subject to the same depth bound) and the first scheduler pass drains
    them; the simulated-load harness uses this to pre-load a burst.
    """

    def __init__(self, db: Database, config: Optional[ServeConfig] = None):
        self.db = db
        self.config = config or ServeConfig()
        self.stats = ServiceStats()
        self._queue: "queue.Queue[ServeRequest]" = queue.Queue(
            maxsize=self.config.max_queue_depth
        )
        self._request_ids = itertools.count(1)
        self._batch_ids = itertools.count(1)
        self._thread: Optional[threading.Thread] = None
        self._stopping = threading.Event()
        self._abort = threading.Event()
        self._stopped = False
        #: Simulated clock charged by retry backoff (never wall sleeps).
        self.sim_clock = SimulatedClock()
        #: Lazily built shard partition (scheduler-owned; rebuilt when the
        #: database mutates).  None until the first sharded execution.
        self._shard_set = None
        self._retry_policy = RetryPolicy(
            max_attempts=self.config.max_attempts,
            backoff_base_ms=self.config.backoff_base_ms,
            backoff_multiplier=self.config.backoff_multiplier,
        )
        #: The serving-plane flight recorder (None when disabled).  Also
        #: published on the database so tooling can reach the ring via
        #: :meth:`~repro.engine.database.Database.flight_recorder`.
        self.recorder: Optional[FlightRecorder] = (
            FlightRecorder(self.config.flight_recorder)
            if self.config.flight_recorder > 0
            else None
        )
        db._flight_recorder = self.recorder
        #: Cursor into the fault plan's fired-event log; the recorder
        #: drains events past it after every batch.
        self._fault_events_seen = 0
        metrics = default_registry()
        self._m_counters = {
            field_name: metrics.counter(name, text)
            for field_name, (name, text) in _COUNTERS.items()
        }
        histogram_help = {
            "batch_requests": "requests coalesced per micro-batch",
            "batch_queries": "queries submitted per micro-batch",
            "batch_distinct": "distinct queries planned per micro-batch",
            "batch_sim_ms": "simulated cost per executed micro-batch",
            "request_latency_ms": "submit-to-resolve latency per served request",
        }
        self._m_hist = {
            name: metrics.histogram(f"serve.{name}", text)
            for name, text in histogram_help.items()
        }
        stage_help = {
            "queued": "wall ms a request waited from submit to batch pickup",
            "coalesce": "wall ms batch assembly / deduplication took",
            "plan": "wall ms multi-query optimization of a batch took",
            "execute": "wall ms shared-plan execution took (all attempts)",
            "gather": "wall ms result fan-out to request futures took",
            "retry": "wall ms re-attempted executions took",
            "degrade": "wall ms raw-base-table fallback executions took",
            "shard_exec": (
                "wall ms one (class, shard) scatter cell took to execute"
            ),
        }
        stage_sim_help = {
            "execute": "simulated ms shared-plan execution charged",
            "retry": "simulated ms of deterministic retry backoff",
            "degrade": "simulated ms fallback executions charged",
            "shard_exec": "simulated ms one (class, shard) scatter cell charged",
        }
        self._m_stage_wall = {
            name: metrics.histogram(f"serve.stage.{name}_ms", text)
            for name, text in stage_help.items()
        }
        self._m_stage_sim = {
            name: metrics.histogram(f"serve.stage.{name}_sim_ms", text)
            for name, text in stage_sim_help.items()
        }
        self._m_queue_depth = metrics.gauge(
            "serve.queue_depth", "requests waiting for the scheduler"
        )
        self._m_coalesce = metrics.gauge(
            "serve.coalesce_ratio",
            "submitted / planned queries over the service lifetime",
        )

    def _count(self, **deltas: float) -> None:
        """Count serving events once: add ``deltas`` to the named
        :class:`ServiceStats` fields and to their ``serve.*`` counters
        (:data:`_COUNTERS`; ``sim_ms_total`` has a histogram instead)."""
        self.stats.record(**deltas)
        for field_name, delta in deltas.items():
            counter = self._m_counters.get(field_name)
            if counter is not None:
                counter.inc(delta)

    # -- lifecycle ------------------------------------------------------------

    @property
    def running(self) -> bool:
        """Whether the scheduler thread is alive."""
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "QueryService":
        """Launch the scheduler thread (idempotent while running)."""
        if self._stopped:
            raise ServiceStopped("the service has been stopped")
        if not self.running:
            self._thread = threading.Thread(
                target=self._loop, name="repro-serve-scheduler", daemon=True
            )
            self._thread.start()
        return self

    def stop(self, drain: bool = True, timeout: Optional[float] = 30.0) -> None:
        """Stop the scheduler.

        With ``drain`` (default) every queued request is still batched and
        answered before the thread exits; without it, the loop exits at
        the next poll and queued requests fail with
        :class:`~repro.serve.futures.ServiceStopped`.
        """
        self._stopped = True
        self._stopping.set()
        if not drain:
            self._abort.set()
        if self._thread is not None:
            self._thread.join(timeout)
        while True:
            try:
                request = self._queue.get_nowait()
            except queue.Empty:
                break
            request.future.set_exception(
                ServiceStopped(
                    f"service stopped before request "
                    f"{request.request_id} was scheduled"
                )
            )
        self._m_queue_depth.set(0)

    def __enter__(self) -> "QueryService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop(drain=exc_type is None)

    # -- submission -----------------------------------------------------------

    def submit(
        self,
        queries: Sequence[GroupByQuery],
        deadline_ms: Optional[float] = None,
        client: str = "",
    ) -> ServeFuture:
        """Admit one request; returns its future immediately.

        Queries are validated against the schema on the caller's thread,
        so malformed requests fail fast without occupying queue capacity.
        ``deadline_ms`` (default: the config's ``default_deadline_ms``)
        bounds how long the request may wait in the queue.
        """
        if self._stopped:
            raise ServiceStopped("the service has been stopped")
        if not queries:
            raise ValueError("a request needs at least one query")
        for query in queries:
            query.validate(self.db.schema)
        if deadline_ms is None:
            deadline_ms = self.config.default_deadline_ms
        now = time.monotonic()
        request_id = next(self._request_ids)
        request = ServeRequest(
            request_id=request_id,
            queries=list(queries),
            future=ServeFuture(request_id),
            submitted_s=now,
            deadline_s=(
                now + deadline_ms / 1000.0 if deadline_ms is not None else None
            ),
            client=client,
        )
        try:
            self._queue.put_nowait(request)
        except queue.Full:
            self._count(n_rejected=1)
            raise AdmissionError(
                f"admission queue full ({self.config.max_queue_depth} "
                f"request(s) waiting); retry later"
            ) from None
        self._count(n_admitted=1)
        self._m_queue_depth.set(self._queue.qsize())
        return request.future

    def submit_mdx(
        self,
        text: str,
        deadline_ms: Optional[float] = None,
        client: str = "",
    ) -> ServeFuture:
        """Translate one MDX expression and submit its component queries."""
        from ..mdx import translate_mdx

        queries = translate_mdx(self.db.schema, text)
        return self.submit(queries, deadline_ms=deadline_ms, client=client)

    # -- the scheduler loop ---------------------------------------------------

    def _loop(self) -> None:
        while not self._abort.is_set():
            try:
                first = self._queue.get(timeout=_POLL_S)
            except queue.Empty:
                if self._stopping.is_set():
                    break
                continue
            requests = [first]
            window_ends = time.monotonic() + self.config.window_ms / 1000.0
            while len(requests) < self.config.max_batch_requests:
                remaining = window_ends - time.monotonic()
                if remaining <= 0:
                    break
                try:
                    requests.append(self._queue.get(timeout=remaining))
                except queue.Empty:
                    break
            self._m_queue_depth.set(self._queue.qsize())
            self._run_batch(requests)

    def _run_batch(self, requests: List[ServeRequest]) -> None:
        now = time.monotonic()
        live: List[ServeRequest] = []
        for request in requests:
            if request.expired(now):
                waited_ms = (now - request.submitted_s) * 1000.0
                self._count(n_timed_out=1)
                request.future.set_exception(
                    DeadlineExceeded(
                        f"request {request.request_id} waited "
                        f"{waited_ms:.1f} ms, past its deadline"
                    )
                )
            else:
                live.append(request)
        if not live:
            return
        stages = _Stages()
        coalesce_started = time.perf_counter()
        batch = assemble_batch(next(self._batch_ids), live)
        batch.started_s = now
        stages.add(
            "coalesce",
            wall_ms=(time.perf_counter() - coalesce_started) * 1000.0,
        )
        try:
            self._execute_batch(batch, stages)
        except BaseException as exc:  # noqa: BLE001 - routed to callers
            self._count(n_failed=len(live))
            for request in live:
                request.future.try_set_exception(exc)
            if self.recorder is not None:
                # A wholesale batch failure is exactly what the flight
                # recorder exists for: log it, and when configured, dump
                # the ring to disk for post-mortem before moving on.
                self.recorder.record(
                    "batch_failure",
                    batch_id=batch.batch_id,
                    error_type=type(exc).__name__,
                    error=str(exc),
                    n_requests=len(live),
                )
                if self.config.flight_recorder_path:
                    self.recorder.dump(self.config.flight_recorder_path)

    def _execute_batch(self, batch: MicroBatch, stages: _Stages) -> None:
        db = self.db
        # With the flight recorder on, every batch is traced: a private
        # per-batch tracer is installed around execution (and restored in
        # the finally) unless an enclosing Database.trace() already
        # provides one.  Tracing feeds the recorder only — it never alters
        # planning or execution, so traced results stay byte-identical.
        installed: Optional[Tracer] = None
        if self.recorder is not None and not db.tracer.enabled:
            installed = Tracer(stats=db.stats)
            db.tracer = installed
        batch_trace_id = db.tracer.trace_id
        batch_span = None
        outcome = "failed"
        # Every answer, and which of them the cache served, by the qid of
        # the distinct (canonical) query run_queries saw.
        answers: Dict[int, QueryResult] = {}
        hits: Set[int] = set()
        try:
            with db.tracer.span(
                "serve.batch",
                batch_id=batch.batch_id,
                n_requests=batch.n_requests,
                n_submitted=batch.n_submitted,
                n_distinct=batch.n_distinct,
            ) as span:
                batch_span = span
                sim_ms, quarantined = self._answer(
                    batch, answers, hits, stages
                )
                span.set("n_cache_hits", len(hits))
                span.set("sim_ms", round(sim_ms, 3))
                if quarantined:
                    span.set("n_quarantined_queries", len(quarantined))
            outcome = "quarantined" if quarantined else "ok"
            self._fan_out(
                batch,
                answers,
                hits,
                sim_ms,
                quarantined,
                stages,
                batch_trace_id,
            )
        finally:
            if installed is not None:
                db.tracer = NULL_TRACER
            self._record_batch(batch, batch_span, outcome, stages)

    def _record_batch(
        self, batch: MicroBatch, span, outcome: str, stages: _Stages
    ) -> None:
        """Append one batch's trace (plus any fault events that fired
        during it) to the flight recorder ring."""
        recorder = self.recorder
        if recorder is None:
            return
        faults = self.db.faults
        if faults is not None:
            events = faults.events_since(self._fault_events_seen)
            self._fault_events_seen += len(events)
            for event in events:
                recorder.record(
                    "fault",
                    batch_id=batch.batch_id,
                    sequence=event.sequence,
                    site=event.site,
                    point=event.point,
                    attrs=dict(event.attrs),
                )
        recorder.record_batch(
            span if isinstance(span, Span) else None,
            batch_id=batch.batch_id,
            outcome=outcome,
            n_requests=batch.n_requests,
            n_submitted=batch.n_submitted,
            n_distinct=batch.n_distinct,
            stages={
                name: timing.as_dict()
                for name, timing in stages.timings().items()
            },
        )

    def _shards(self):
        """The current shard partition, (re)built on first use and after
        every database mutation (the partition is keyed on the mutation
        epoch, exactly like the result cache)."""
        from .shard import build_shards

        if self._shard_set is None or self._shard_set.stale(
            self.db.data_version
        ):
            with self.db.tracer.span(
                "shard.build",
                n_shards=self.config.shards,
                dim=self.config.shard_dim or "",
            ):
                self._shard_set = build_shards(
                    self.db, self.config.shards, self.config.shard_dim
                )
        return self._shard_set

    def _answer(
        self,
        batch: MicroBatch,
        answers: Dict[int, QueryResult],
        hits: Set[int],
        stages: _Stages,
    ) -> "tuple[float, Dict[int, BaseException]]":
        """Answer the batch's distinct queries through
        :meth:`Database.run_queries` — cache, planning, validation and
        retention are the door's — re-asking only the queries whose class
        failed on an injected fault (bounded retry), then the degraded
        per-query fallback.  Fills ``answers`` and ``hits``; returns the
        simulated cost charged and, by qid, the error of every query that
        exhausted each recovery path (for fan-out quarantine)."""
        db = self.db
        config = self.config
        state = {
            "outstanding": list(batch.distinct),
            "sim_ms": 0.0,
            "errors": {},
        }

        def attempt(attempt_no: int) -> None:
            retry_started = None
            if attempt_no > 1:
                retry_started = time.perf_counter()
                self._count(n_retries=1)
                if self.recorder is not None:
                    self.recorder.record(
                        "retry",
                        batch_id=batch.batch_id,
                        attempt=attempt_no,
                        n_outstanding=len(state["outstanding"]),
                    )
            try:
                execution = db.run_queries(
                    state["outstanding"],
                    config.algorithm,
                    cold=config.cold,
                    n_workers=config.n_workers,
                    shard_set=self._shards() if config.shards > 1 else None,
                )
            finally:
                if retry_started is not None:
                    stages.add(
                        "retry",
                        wall_ms=(time.perf_counter() - retry_started)
                        * 1000.0,
                    )
            state["sim_ms"] += execution.sim_ms
            stages.add(
                "plan",
                wall_ms=execution.plan.search_stats.get("planning_s", 0.0)
                * 1000.0,
            )
            stages.add(
                "execute",
                wall_ms=execution.elapsed_s * 1000.0,
                sim_ms=execution.sim_ms,
            )
            answers.update(execution.results)
            hits.update(execution.cache_hits)
            if execution.failures:
                state["errors"] = {
                    qid: failure.error
                    for failure in execution.failures
                    for qid in failure.qids
                }
                state["outstanding"] = [
                    q for q in state["outstanding"] if q.qid in state["errors"]
                ]
                raise execution.failures[0].error

        quarantined: Dict[int, BaseException] = {}
        backoff_before_ms = self.sim_clock.now_ms
        try:
            call_with_retry(
                self._retry_policy,
                attempt,
                clock=self.sim_clock,
                retry_on=(InjectedFault,),
                tracer=db.tracer,
                label=f"serve batch {batch.batch_id}",
            )
        except RetryExhausted as exhausted:
            for query in list(state["outstanding"]):
                error = state["errors"].get(query.qid, exhausted)
                if config.degrade:
                    error = self._degrade_query(query, answers, state, stages)
                if error is not None:
                    quarantined[query.qid] = error
                    if self.recorder is not None:
                        self.recorder.record(
                            "quarantine",
                            batch_id=batch.batch_id,
                            qid=query.qid,
                            error_type=type(error).__name__,
                            error=str(error),
                        )
        finally:
            # The simulated clock only ever advances by retry backoff, so
            # its delta across the retry loop is the backoff charge.
            backoff_ms = self.sim_clock.now_ms - backoff_before_ms
            if backoff_ms > 0.0:
                stages.add("retry", sim_ms=backoff_ms)
        return state["sim_ms"], quarantined

    def _degrade_query(
        self,
        query: GroupByQuery,
        answers: Dict[int, QueryResult],
        state: Dict,
        stages: _Stages,
    ) -> Optional[BaseException]:
        """Degraded mode: re-plan one repeatedly-failing query *alone*
        against the raw fact table and execute it, sidestepping whatever
        shared class (view, index, scan) the fault keeps killing.  The
        plan is hand-built, so this is the one executed result retained
        outside :meth:`Database.run_queries`.  Returns None on success,
        or the final error for quarantine."""
        from ..core.optimizer.base import build_plan_class
        from ..core.optimizer.cost import CostModel
        from ..core.optimizer.plans import GlobalPlan

        db = self.db
        degrade_started = time.perf_counter()
        try:
            entry = next(iter(db.catalog.raw_entries()), None)
            if entry is None:
                return state["errors"].get(query.qid) or RuntimeError(
                    "no raw base table to degrade to"
                )
            with db.tracer.span(
                "serve.degrade", qid=query.qid, source=entry.name
            ) as span:
                try:
                    plan_class = build_plan_class(
                        CostModel.for_database(db), entry, [query]
                    )
                except ValueError as exc:
                    span.set("failed", True)
                    return exc
                plan = GlobalPlan(algorithm="degraded", classes=[plan_class])
                execution = db.execute(plan, cold=self.config.cold)
                state["sim_ms"] += execution.sim_ms
                stages.add("degrade", sim_ms=execution.sim_ms)
                if execution.failures:
                    span.set("failed", True)
                    return execution.failures[0].error
                answers[query.qid] = execution.results[query.qid]
                if db.result_cache is not None:
                    db.result_cache.put(answers[query.qid])
        finally:
            stages.add(
                "degrade",
                wall_ms=(time.perf_counter() - degrade_started) * 1000.0,
            )
        self._count(n_degraded=1)
        return None

    def _fan_out(
        self,
        batch: MicroBatch,
        answers: Dict[int, QueryResult],
        hits: Set[int],
        sim_ms: float,
        quarantined: Dict[int, BaseException],
        stages: _Stages,
        batch_trace_id: Optional[str],
    ) -> None:
        gather_started = time.perf_counter()
        now = time.monotonic()
        responses: Dict[int, ServeResponse] = {}
        # request id -> (canonical qid, the request's own qid) of each of
        # its quarantined queries.
        poisoned: Dict[int, List["tuple[int, int]"]] = {}
        for request in batch.requests:
            responses[request.request_id] = ServeResponse(
                request_id=request.request_id,
                batch_id=batch.batch_id,
                latency_s=now - request.submitted_s,
                trace_id=request.future.trace_id,
                batch_trace_id=batch_trace_id,
            )
        for pairs in batch.members.values():
            canonical_qid = pairs[0][1].qid
            if canonical_qid in quarantined:
                for request, twin in pairs:
                    poisoned.setdefault(request.request_id, []).append(
                        (canonical_qid, twin.qid)
                    )
                continue
            result = answers[canonical_qid]
            from_cache = canonical_qid in hits
            for request, twin in pairs:
                response = responses[request.request_id]
                # Each fan-out owns a deep copy: a caller mutating its
                # ServeResponse must never reach the canonical result or
                # the result cache.
                response.results[twin.qid] = result.detached(query=twin)
                if from_cache:
                    response.n_cache_hits += 1
                elif twin.qid != canonical_qid:
                    response.n_coalesced += 1
        stages.add(
            "gather",
            wall_ms=(time.perf_counter() - gather_started) * 1000.0,
        )
        batch_timings = stages.timings()
        # Batch-level stages observe once per batch; the per-request
        # "queued" stage observes once per member request below.
        for name, timing in batch_timings.items():
            wall_hist = self._m_stage_wall.get(name)
            if wall_hist is not None:
                wall_hist.observe(timing.wall_ms)
            sim_hist = self._m_stage_sim.get(name)
            if sim_hist is not None:
                sim_hist.observe(timing.sim_ms)
        n_served = 0
        for request in batch.requests:
            response = responses[request.request_id]
            if batch.started_s:
                queued_ms = max(
                    0.0, (batch.started_s - request.submitted_s) * 1000.0
                )
            else:
                queued_ms = 0.0
            self._m_stage_wall["queued"].observe(queued_ms)
            response.stages = dict(batch_timings)
            response.stages["queued"] = StageTiming(
                "queued", wall_ms=queued_ms
            )
            bad = poisoned.get(request.request_id)
            if bad:
                # Per-request fault quarantine: this request's queries kept
                # failing, so it is failed alone; batchmates complete.
                bad_qids = sorted(own_qid for _canonical, own_qid in bad)
                cause = quarantined[bad[0][0]]
                self._count(n_quarantined=1)
                request.future.try_set_exception(
                    RequestQuarantined(
                        f"request {request.request_id} quarantined: "
                        f"{len(bad_qids)} of its {len(request.queries)} "
                        f"query(ies) failed every retry and fallback "
                        f"({cause})",
                        qids=bad_qids,
                        cause=cause,
                    )
                )
                continue
            if request.expired(now):
                # The deadline elapsed while the batch executed (or
                # retried); a late result must not be delivered as if it
                # made it — and since _run_batch may already have failed
                # this future, resolution must not be attempted twice.
                waited_ms = (now - request.submitted_s) * 1000.0
                self._count(n_timed_out=1)
                request.future.try_set_exception(
                    DeadlineExceeded(
                        f"request {request.request_id} answered after "
                        f"{waited_ms:.1f} ms, past its deadline"
                    )
                )
                continue
            self._m_hist["request_latency_ms"].observe(
                response.latency_s * 1000.0
            )
            if request.future.try_set_result(response):
                n_served += 1

        self._count(
            n_served=n_served,
            n_batches=1,
            n_queries_submitted=batch.n_submitted,
            n_queries_planned=batch.n_distinct - len(hits),
            n_cache_hits=len(hits),
            n_duplicates_eliminated=batch.n_duplicates_eliminated,
            sim_ms_total=sim_ms,
        )
        self.stats.record_batch(batch.n_requests)
        self._m_hist["batch_requests"].observe(batch.n_requests)
        self._m_hist["batch_queries"].observe(batch.n_submitted)
        self._m_hist["batch_distinct"].observe(batch.n_distinct)
        self._m_hist["batch_sim_ms"].observe(sim_ms)
        self._m_coalesce.set(self.stats.coalesce_ratio)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "running" if self.running else (
            "stopped" if self._stopped else "new"
        )
        return (
            f"QueryService({state}, window={self.config.window_ms}ms, "
            f"served={self.stats.n_served})"
        )
