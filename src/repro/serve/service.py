"""The concurrent query service: admission, scheduling, and fan-out.

A :class:`QueryService` is the first concurrency layer over the engine.
Clients on any thread submit group-by batches (or MDX text) and immediately
get a :class:`~repro.serve.futures.ServeFuture`; a single scheduler thread
owns the engine and turns the arrival stream into micro-batches:

1. **Admission** — a bounded queue; a full queue rejects at the door
   (:class:`~repro.serve.futures.AdmissionError`), which is the service's
   backpressure signal.
2. **Micro-batching** — everything arriving within ``window_ms`` of the
   batch's first request (capped at ``max_batch_requests``) is coalesced:
   duplicate queries across clients collapse to one planned instance, and
   result-cache hits bypass planning entirely.
3. **Planning** — the distinct cache-missing queries go through the
   existing multi-query optimizers (``gg`` by default) as *one* global
   plan, so the paper's shared star-join operators now share work across
   sessions, not just within one MDX expression.
4. **Execution** — the merged plan's independent classes run concurrently
   on a thread pool (:func:`~repro.core.executor.execute_plan` with
   ``n_workers``); results stay byte-identical to serial single-session
   execution (each class runs in a private cold context).
5. **Fan-out** — per-query results (deep copies via
   :meth:`~repro.core.operators.results.QueryResult.detached`, never
   shared mutable state) and errors are routed back to each waiting
   caller's future, with per-request deadlines enforced while queued.

With ``ServeConfig(shards=N)`` step 4 becomes scatter-gather: the one
global plan fans out over N hash partitions of the data
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
from typing import Dict, List, Optional, Sequence

from ..core.executor import ExecutionReport, execute_plan
from ..core.operators.results import QueryResult
from ..engine.database import Database
from ..engine.session import QueryKey, query_key
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
        self._m_admitted = metrics.counter(
            "serve.requests_admitted", "requests accepted into the queue"
        )
        self._m_rejected = metrics.counter(
            "serve.requests_rejected", "requests refused by backpressure"
        )
        self._m_timed_out = metrics.counter(
            "serve.requests_timed_out", "requests whose deadline expired queued"
        )
        self._m_failed = metrics.counter(
            "serve.requests_failed", "requests failed by a batch error"
        )
        self._m_served = metrics.counter(
            "serve.requests_served", "requests answered with results"
        )
        self._m_batches = metrics.counter(
            "serve.batches", "micro-batches executed"
        )
        self._m_queue_depth = metrics.gauge(
            "serve.queue_depth", "requests waiting for the scheduler"
        )
        self._m_batch_requests = metrics.histogram(
            "serve.batch_requests", "requests coalesced per micro-batch"
        )
        self._m_batch_queries = metrics.histogram(
            "serve.batch_queries", "queries submitted per micro-batch"
        )
        self._m_batch_distinct = metrics.histogram(
            "serve.batch_distinct", "distinct queries planned per micro-batch"
        )
        self._m_batch_sim_ms = metrics.histogram(
            "serve.batch_sim_ms", "simulated cost per executed micro-batch"
        )
        self._m_latency = metrics.histogram(
            "serve.request_latency_ms",
            "submit-to-resolve latency per served request",
        )
        self._m_coalesce = metrics.gauge(
            "serve.coalesce_ratio",
            "submitted / planned queries over the service lifetime",
        )
        self._m_duplicates = metrics.counter(
            "serve.duplicates_eliminated",
            "duplicate query evaluations avoided by coalescing",
        )
        self._m_cache_hits = metrics.counter(
            "serve.cache_hits", "queries answered from the result cache"
        )
        self._m_queries_submitted = metrics.counter(
            "serve.queries_submitted", "component queries submitted"
        )
        self._m_queries_planned = metrics.counter(
            "serve.queries_planned", "distinct queries planned and executed"
        )
        self._m_quarantined = metrics.counter(
            "serve.requests_quarantined",
            "requests failed alone after retries and degradation",
        )
        self._m_retries = metrics.counter(
            "serve.execution_retries",
            "batch executions re-attempted after a class failure",
        )
        self._m_degraded = metrics.counter(
            "serve.degraded_queries",
            "queries answered by the per-query raw-base-table fallback",
        )
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
            self.stats.record(n_rejected=1)
            self._m_rejected.inc()
            raise AdmissionError(
                f"admission queue full ({self.config.max_queue_depth} "
                f"request(s) waiting); retry later"
            ) from None
        self.stats.record(n_admitted=1)
        self._m_admitted.inc()
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
                self.stats.record(n_timed_out=1)
                self._m_timed_out.inc()
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
            self.stats.record(n_failed=len(live))
            self._m_failed.inc(len(live))
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
        config = self.config
        paranoia = db.paranoia
        cache = getattr(db, "result_cache", None)
        hits: Dict[QueryKey, QueryResult] = {}
        misses: List[GroupByQuery] = []
        if cache is not None:
            cache.sync(db.data_version)
            for query in batch.distinct:
                cached = cache.get(query)
                if cached is None:
                    misses.append(query)
                else:
                    hits[query_key(query)] = cached
        else:
            misses = list(batch.distinct)

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
        sim_ms = 0.0
        canonical: Dict[QueryKey, QueryResult] = dict(hits)
        quarantined: Dict[QueryKey, BaseException] = {}
        try:
            with db.tracer.span(
                "serve.batch",
                batch_id=batch.batch_id,
                n_requests=batch.n_requests,
                n_submitted=batch.n_submitted,
                n_distinct=batch.n_distinct,
                n_cache_hits=len(hits),
            ) as span:
                batch_span = span
                if misses:
                    sim_ms, quarantined = self._execute_misses(
                        batch,
                        misses,
                        canonical,
                        cache=cache,
                        paranoia=paranoia,
                        stages=stages,
                    )
                if hits and paranoia:
                    from ..check.paranoia import recheck_cache_hits

                    recheck_cache_hits(
                        db, {hit.query.qid: hit for hit in hits.values()}
                    )
                span.set("sim_ms", round(sim_ms, 3))
                if quarantined:
                    span.set("n_quarantined_queries", len(quarantined))
            outcome = "quarantined" if quarantined else "ok"
            self._fan_out(
                batch,
                canonical,
                hits,
                sim_ms,
                quarantined,
                stages=stages,
                batch_trace_id=batch_trace_id,
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

    def _run_plan(
        self,
        queries: List[GroupByQuery],
        paranoia: bool,
        stages: Optional[_Stages] = None,
    ) -> ExecutionReport:
        """Optimize, (optionally) validate, and execute one set of distinct
        queries.  Fault-injected class failures land in the report's
        ``failures`` list; sibling classes' results are unaffected."""
        db = self.db
        config = self.config
        plan_started = time.perf_counter()
        plan = db.optimize(queries, config.algorithm)
        if stages is not None:
            stages.add(
                "plan", wall_ms=(time.perf_counter() - plan_started) * 1000.0
            )
        if paranoia:
            from ..check.errors import CorrectnessError, PlanValidationError
            from ..check.validate import validate_global_plan

            try:
                validate_global_plan(db.schema, db.catalog, plan, queries)
            except PlanValidationError as exc:
                raise CorrectnessError(
                    f"{config.algorithm!r} produced a structurally "
                    f"invalid plan: {exc}",
                    plan=plan,
                ) from exc
        exec_started = time.perf_counter()
        try:
            report = execute_plan(
                db,
                plan,
                cold=config.cold,
                n_workers=config.n_workers,
                shard_set=self._shards() if config.shards > 1 else None,
                paranoia=paranoia,
            )
        finally:
            if stages is not None:
                stages.add(
                    "execute",
                    wall_ms=(time.perf_counter() - exec_started) * 1000.0,
                )
        if stages is not None:
            stages.add("execute", sim_ms=report.sim_ms)
        return report

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

    def _execute_misses(
        self,
        batch: MicroBatch,
        misses: List[GroupByQuery],
        canonical: Dict[QueryKey, QueryResult],
        *,
        cache,
        paranoia: bool,
        stages: Optional[_Stages] = None,
    ) -> "tuple[float, Dict[QueryKey, BaseException]]":
        """Run the cache-missing queries with bounded retry on injected
        class failures, then the degraded per-query fallback; returns the
        simulated cost charged and the queries that exhausted every
        recovery path (keyed for fan-out quarantine)."""
        db = self.db
        state = {
            "outstanding": list(misses),
            "sim_ms": 0.0,
            "errors": {},
        }

        def record(execution: ExecutionReport) -> None:
            state["sim_ms"] += execution.sim_ms
            clean = not execution.failures
            for result in execution.results.values():
                canonical[query_key(result.query)] = result
                # A partially-failed execution must leave no trace in the
                # result cache: only fully-clean executions are retained.
                if clean and cache is not None:
                    cache.put(result)

        def attempt(attempt_no: int) -> None:
            retry_started = None
            if attempt_no > 1:
                retry_started = time.perf_counter()
                self.stats.record(n_retries=1)
                self._m_retries.inc()
                if self.recorder is not None:
                    self.recorder.record(
                        "retry",
                        batch_id=batch.batch_id,
                        attempt=attempt_no,
                        n_outstanding=len(state["outstanding"]),
                    )
            try:
                execution = self._run_plan(
                    state["outstanding"], paranoia, stages=stages
                )
            finally:
                if retry_started is not None and stages is not None:
                    stages.add(
                        "retry",
                        wall_ms=(time.perf_counter() - retry_started)
                        * 1000.0,
                    )
            record(execution)
            if execution.failures:
                failed = set(execution.failed_qids)
                errors: Dict[QueryKey, BaseException] = {}
                for query in state["outstanding"]:
                    if query.qid in failed:
                        for failure in execution.failures:
                            if query.qid in failure.qids:
                                errors[query_key(query)] = failure.error
                                break
                state["outstanding"] = [
                    q for q in state["outstanding"] if q.qid in failed
                ]
                state["errors"] = errors
                raise execution.failures[0].error
            state["outstanding"] = []
            state["errors"] = {}

        quarantined: Dict[QueryKey, BaseException] = {}
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
                error = state["errors"].get(query_key(query), exhausted)
                if self.config.degrade:
                    error = self._degrade_query(
                        query, canonical, cache, state, stages=stages
                    )
                if error is not None:
                    quarantined[query_key(query)] = error
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
            if stages is not None and backoff_ms > 0.0:
                stages.add("retry", sim_ms=backoff_ms)
        return state["sim_ms"], quarantined

    def _raw_base_entry(self):
        for entry in self.db.catalog.entries():
            if entry.is_raw:
                return entry
        return None

    def _degrade_query(
        self,
        query: GroupByQuery,
        canonical: Dict[QueryKey, QueryResult],
        cache,
        state: Dict,
        stages: Optional[_Stages] = None,
    ) -> Optional[BaseException]:
        """Degraded mode: re-plan one repeatedly-failing query *alone*
        against the raw fact table and execute it, sidestepping whatever
        shared class (view, index, scan) the fault keeps killing.  Returns
        None on success, or the final error for quarantine."""
        from ..core.optimizer.base import build_plan_class
        from ..core.optimizer.cost import CostModel
        from ..core.optimizer.plans import GlobalPlan

        db = self.db
        degrade_started = time.perf_counter()
        try:
            entry = self._raw_base_entry()
            if entry is None:
                return state["errors"].get(query_key(query)) or RuntimeError(
                    "no raw base table to degrade to"
                )
            with db.tracer.span(
                "serve.degrade", qid=query.qid, source=entry.name
            ) as span:
                model = CostModel(
                    db.schema,
                    db.catalog,
                    db.stats.rates,
                    statistics=getattr(db, "table_statistics", None),
                    dim_tables=getattr(db, "dimension_tables", None),
                )
                try:
                    plan_class = build_plan_class(model, entry, [query])
                except ValueError as exc:
                    span.set("failed", True)
                    return exc
                plan = GlobalPlan(algorithm="degraded", classes=[plan_class])
                execution = db.execute(plan, cold=self.config.cold)
                state["sim_ms"] += execution.sim_ms
                if stages is not None:
                    stages.add("degrade", sim_ms=execution.sim_ms)
                if execution.failures:
                    span.set("failed", True)
                    return execution.failures[0].error
                result = execution.results[query.qid]
                canonical[query_key(query)] = result
                if cache is not None:
                    cache.put(result)
        finally:
            if stages is not None:
                stages.add(
                    "degrade",
                    wall_ms=(time.perf_counter() - degrade_started) * 1000.0,
                )
        self.stats.record(n_degraded=1)
        self._m_degraded.inc()
        return None

    def _fan_out(
        self,
        batch: MicroBatch,
        canonical: Dict[QueryKey, QueryResult],
        hits: Dict[QueryKey, QueryResult],
        sim_ms: float,
        quarantined: Optional[Dict[QueryKey, BaseException]] = None,
        stages: Optional[_Stages] = None,
        batch_trace_id: Optional[str] = None,
    ) -> None:
        quarantined = quarantined or {}
        gather_started = time.perf_counter()
        now = time.monotonic()
        responses: Dict[int, ServeResponse] = {}
        poisoned: Dict[int, List[QueryKey]] = {}
        for request in batch.requests:
            responses[request.request_id] = ServeResponse(
                request_id=request.request_id,
                batch_id=batch.batch_id,
                latency_s=now - request.submitted_s,
                trace_id=request.future.trace_id,
                batch_trace_id=batch_trace_id,
            )
        for key, pairs in batch.members.items():
            if key in quarantined:
                for request, _twin in pairs:
                    poisoned.setdefault(request.request_id, []).append(key)
                continue
            result = canonical[key]
            from_cache = key in hits
            canonical_qid = result.query.qid
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
        if stages is not None:
            stages.add(
                "gather",
                wall_ms=(time.perf_counter() - gather_started) * 1000.0,
            )
        batch_timings = stages.timings() if stages is not None else {}
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
            bad_keys = poisoned.get(request.request_id)
            if bad_keys:
                # Per-request fault quarantine: this request's queries kept
                # failing, so it is failed alone; batchmates complete.
                bad_qids = sorted(
                    twin.qid
                    for key in bad_keys
                    for req, twin in batch.members[key]
                    if req.request_id == request.request_id
                )
                cause = quarantined[bad_keys[0]]
                self.stats.record(n_quarantined=1)
                self._m_quarantined.inc()
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
                self.stats.record(n_timed_out=1)
                self._m_timed_out.inc()
                request.future.try_set_exception(
                    DeadlineExceeded(
                        f"request {request.request_id} answered after "
                        f"{waited_ms:.1f} ms, past its deadline"
                    )
                )
                continue
            self._m_latency.observe(response.latency_s * 1000.0)
            if request.future.try_set_result(response):
                n_served += 1

        n_planned = batch.n_distinct - len(hits)
        stats = self.stats
        stats.record(
            n_served=n_served,
            n_batches=1,
            n_queries_submitted=batch.n_submitted,
            n_queries_planned=n_planned,
            n_cache_hits=len(hits),
            n_duplicates_eliminated=batch.n_duplicates_eliminated,
            sim_ms_total=sim_ms,
        )
        stats.record_batch(batch.n_requests)
        self._m_served.inc(n_served)
        self._m_batches.inc()
        self._m_batch_requests.observe(batch.n_requests)
        self._m_batch_queries.observe(batch.n_submitted)
        self._m_batch_distinct.observe(batch.n_distinct)
        self._m_batch_sim_ms.observe(sim_ms)
        self._m_duplicates.inc(batch.n_duplicates_eliminated)
        self._m_cache_hits.inc(len(hits))
        self._m_queries_submitted.inc(batch.n_submitted)
        self._m_queries_planned.inc(n_planned)
        self._m_coalesce.set(stats.coalesce_ratio)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "running" if self.running else (
            "stopped" if self._stopped else "new"
        )
        return (
            f"QueryService({state}, window={self.config.window_ms}ms, "
            f"served={self.stats.n_served})"
        )
