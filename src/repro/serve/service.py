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
   under the config's recovery policy (cache, planning, validation,
   recovery, retention: ``docs/architecture.md`` §"Answering a batch"), as
   *one* global plan — so the paper's shared star-join operators share
   work across sessions, not just within one MDX expression — whose
   classes run in plan order on the scheduler thread, byte-identical to
   single-session execution.
4. **Fan-out** — per-query results (copies via
   :meth:`~repro.core.operators.results.QueryResult.detached`, never
   shared mutable state) and errors are routed back to each waiting
   caller's future, with per-request deadlines enforced while queued; a
   request asking a query the door left failed is quarantined alone.

Only the scheduler thread touches the database — one thread per batch,
planning and every class of the plan — so the engine itself needs no
locking.
:class:`ServiceStats` is the exception — client threads add admission
counts while the scheduler adds the rest — so it is a locked
:class:`~repro.obs.metrics.Ledger` and readers take its ``snapshot()``.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core.executor import ExecutionReport
from ..engine.database import Database
from ..obs.metrics import STAGES, Ledger, counted, default_registry
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

#: How often the idle scheduler wakes to check for shutdown.
_POLL_S = 0.02


@dataclass
class ServiceStats(Ledger):
    """Cumulative accounting of one service's lifetime, each count declared
    once with the ``serve.*`` counter that mirrors it.

    Client threads add the admission counts while the scheduler adds the
    rest, so every change goes through the ledger's locked
    :meth:`~repro.obs.metrics.Ledger.add`, and reporting reads a
    :meth:`~repro.obs.metrics.Ledger.snapshot` (a torn read could pair a
    bumped ``n_batches`` with a not-yet-bumped ``sim_ms_total``).
    """

    n_admitted: int = counted(
        "serve.requests_admitted", "requests accepted into the queue"
    )
    n_rejected: int = counted(
        "serve.requests_rejected", "requests refused by backpressure"
    )
    n_timed_out: int = counted(
        "serve.requests_timed_out", "requests whose deadline expired queued"
    )
    n_failed: int = counted(
        "serve.requests_failed", "requests failed by a batch error"
    )
    n_quarantined: int = counted(
        "serve.requests_quarantined",
        "requests failed alone after retries and degradation",
    )
    n_served: int = counted(
        "serve.requests_served", "requests answered with results"
    )
    n_batches: int = counted("serve.batches", "micro-batches executed")
    n_retries: int = counted(
        "serve.execution_retries",
        "batch executions re-attempted after a class failure",
    )
    n_degraded: int = counted(
        "serve.degraded_queries",
        "queries answered by the per-query raw-base-table fallback",
    )
    n_queries_submitted: int = counted(
        "serve.queries_submitted", "component queries submitted"
    )
    n_queries_planned: int = counted(
        "serve.queries_planned", "distinct queries planned and executed"
    )
    n_cache_hits: int = counted(
        "serve.cache_hits", "queries answered from the result cache"
    )
    n_duplicates_eliminated: int = counted(
        "serve.duplicates_eliminated",
        "duplicate query evaluations avoided by coalescing",
    )
    #: Simulated cost actually charged by batch executions.
    sim_ms_total: float = 0.0
    #: Simulated retry backoff: the policy's wait before every re-ask
    #: (never a wall-clock sleep).
    backoff_ms: float = 0.0

    @property
    def coalesce_ratio(self) -> float:
        """Submitted queries per planned query, cache hits excluded from
        the denominator (1.0 = no cross-session sharing at all)."""
        with self._lock:
            denominator = self.n_queries_planned + self.n_cache_hits
            return (
                self.n_queries_submitted / denominator if denominator else 1.0
            )


class _Stages(Dict[str, StageTiming]):
    """Per-batch stage-latency accumulator (scheduler-thread-only): stage
    name -> its :class:`~repro.serve.futures.StageTiming` so far.

    Each named stage accumulates wall milliseconds and simulated cost
    milliseconds across however many times it runs within one batch (a
    retried execution adds to ``plan``/``execute`` once per attempt).  The
    scheduler folds the totals into ``serve.stage.*`` histograms and every
    member request's :attr:`~repro.serve.futures.ServeResponse.stages` at
    fan-out.  Not thread-safe by design: only the scheduler thread writes
    it, and it dies with its batch.
    """

    def add(self, name: str, wall_ms: float = 0.0, sim_ms: float = 0.0) -> None:
        """Accumulate one stage run's cost on both clocks."""
        was = self.get(name) or StageTiming(name)
        self[name] = StageTiming(name, was.wall_ms + wall_ms, was.sim_ms + sim_ms)


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
        self._m_stage_wall = {
            name: metrics.histogram(f"serve.stage.{name}_ms", wall_help)
            for name, (wall_help, _sim_help) in STAGES.items()
        }
        self._m_stage_sim = {
            name: metrics.histogram(f"serve.stage.{name}_sim_ms", sim_help)
            for name, (_wall_help, sim_help) in STAGES.items()
            if sim_help is not None
        }
        self._m_backoff = metrics.histogram(
            "retry.backoff_ms", "simulated backoff waits between attempts"
        )
        self._m_queue_depth = metrics.gauge(
            "serve.queue_depth", "requests waiting for the scheduler"
        )
        self._m_coalesce = metrics.gauge(
            "serve.coalesce_ratio",
            "submitted / planned queries over the service lifetime",
        )

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
            request.future.try_resolve(
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
            self.stats.add(n_rejected=1)
            raise AdmissionError(
                f"admission queue full ({self.config.max_queue_depth} "
                f"request(s) waiting); retry later"
            ) from None
        self.stats.add(n_admitted=1)
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
                self.stats.add(n_timed_out=1)
                request.future.try_resolve(_late(request, now, "waited"))
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
            self.stats.add(n_failed=len(live))
            for request in live:
                request.future.try_resolve(exc)
            # A wholesale batch failure is exactly what the flight recorder
            # exists for: log it, and when configured, dump the ring to disk
            # for post-mortem before moving on.
            self._note(
                batch, "batch_failure", error_type=type(exc).__name__,
                error=str(exc), n_requests=len(live),
            )
            if self.recorder is not None and self.config.flight_recorder_path:
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
        config = self.config
        try:
            with db.tracer.span(
                "serve.batch",
                batch_id=batch.batch_id,
                n_requests=batch.n_requests,
                n_submitted=batch.n_submitted,
                n_distinct=batch.n_distinct,
            ) as span:
                batch_span = span
                report = db.run_queries(
                    batch.distinct, config.algorithm, cold=config.cold,
                    recovery=config.recovery,
                )
                quarantined = self._account(batch, report, stages)
                span.set("n_cache_hits", report.n_cache_hits)
                span.set("sim_ms", round(report.sim_ms, 3))
                if quarantined:
                    span.set("n_quarantined_queries", len(quarantined))
            outcome = "quarantined" if quarantined else "ok"
            self._fan_out(batch, report, quarantined, stages, batch_trace_id)
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
                self._note(
                    batch, "fault", sequence=event.sequence, site=event.site,
                    point=event.point, attrs=dict(event.attrs),
                )
        recorder.record_batch(
            span if isinstance(span, Span) else None,
            batch_id=batch.batch_id,
            outcome=outcome,
            n_requests=batch.n_requests,
            n_submitted=batch.n_submitted,
            n_distinct=batch.n_distinct,
            stages={name: timing.as_dict() for name, timing in stages.items()},
        )

    def _account(
        self, batch: MicroBatch, report: ExecutionReport, stages: _Stages
    ) -> Dict[int, BaseException]:
        """Fold what the door ran (``report.attempts``, or the report alone)
        into the batch's stages, stats and recorder.  Each re-ask's backoff
        is added to ``stats.backoff_ms`` and observed as ``retry.backoff_ms``
        — the one place a simulated clock moves.  Returns the error of each
        query left failed."""
        n_retries = n_degraded = 0
        backoff_ms = 0.0
        for number, run in enumerate(report.attempts or [report], start=1):
            wall_ms = run.elapsed_s * 1000.0
            if run.plan.algorithm == "degraded":
                stages.add("degrade", wall_ms=wall_ms, sim_ms=run.sim_ms)
                if not run.failures:
                    n_degraded += 1
                continue
            plan_ms = run.plan.search_stats.planning_s * 1000.0
            if number > 1:
                n_retries += 1
                wait_ms = self.config.recovery.backoff_ms(number)
                if wait_ms > 0.0:
                    backoff_ms += wait_ms
                    self._m_backoff.observe(wait_ms)
                stages.add("retry", wall_ms=plan_ms + wall_ms)
                self._note(batch, "retry", attempt=number, n_outstanding=run.n_queries)
            stages.add("plan", wall_ms=plan_ms)
            stages.add("execute", wall_ms=wall_ms, sim_ms=run.sim_ms)
        if backoff_ms > 0.0:
            stages.add("retry", sim_ms=backoff_ms)
        self.stats.add(
            n_retries=n_retries, n_degraded=n_degraded, backoff_ms=backoff_ms
        )
        failed = {qid: f.error for f in report.failures for qid in f.qids}
        for query in batch.distinct:
            if query.qid in failed:
                error = failed[query.qid]
                self._note(
                    batch, "quarantine", qid=query.qid,
                    error_type=type(error).__name__, error=str(error),
                )
        return failed

    def _note(self, batch: MicroBatch, kind: str, **data) -> None:
        """Record one of ``batch``'s serving events (when recording)."""
        if self.recorder is not None:
            self.recorder.record(kind, batch_id=batch.batch_id, **data)

    def _fan_out(
        self,
        batch: MicroBatch,
        report: ExecutionReport,
        quarantined: Dict[int, BaseException],
        stages: _Stages,
        batch_trace_id: Optional[str],
    ) -> None:
        """Settle every request of ``batch`` in one pass: compute its one
        outcome (a response, a :class:`RequestQuarantined` or a deadline
        failure), resolve its future once, and only then observe the stage
        histograms and record the batch totals."""
        gather_started = time.perf_counter()
        now = time.monotonic()
        # Every answer, and which of them the cache served, by the qid of
        # the distinct (canonical) query run_queries saw.
        answers, hits = report.results, report.cache_hits
        responses = {
            request.request_id: ServeResponse(
                request_id=request.request_id,
                batch_id=batch.batch_id,
                latency_s=now - request.submitted_s,
                trace_id=request.future.trace_id,
                batch_trace_id=batch_trace_id,
            )
            for request in batch.requests
        }
        # request id -> (its own qids the door left failed, the first cause)
        poisoned: Dict[int, Tuple[List[int], BaseException]] = {}
        for pairs in batch.members.values():
            canonical_qid = pairs[0][1].qid
            error = quarantined.get(canonical_qid)
            for request, twin in pairs:
                if error is not None:
                    bad = poisoned.setdefault(request.request_id, ([], error))
                    bad[0].append(twin.qid)
                    continue
                response = responses[request.request_id]
                # Each fan-out owns a copy: a caller mutating its
                # ServeResponse must never reach the canonical result or
                # the result cache.
                response.results[twin.qid] = answers[canonical_qid].detached(
                    query=twin
                )
                if canonical_qid in hits:
                    response.n_cache_hits += 1
                elif twin.qid != canonical_qid:
                    response.n_coalesced += 1
        stages.add(
            "gather",
            wall_ms=(time.perf_counter() - gather_started) * 1000.0,
        )
        outcomes: List[Union[ServeResponse, BaseException]] = []
        queued_ms: List[float] = []
        n_late = 0
        for request in batch.requests:
            queued = StageTiming(
                "queued", max(0.0, batch.started_s - request.submitted_s) * 1e3
            )
            queued_ms.append(queued.wall_ms)
            if request.request_id in poisoned:
                # Per-request fault quarantine: this request's queries kept
                # failing, so it is failed alone; batchmates complete.
                bad_qids, cause = poisoned[request.request_id]
                outcomes.append(RequestQuarantined(
                    f"request {request.request_id} quarantined: "
                    f"{len(bad_qids)} of its {len(request.queries)} "
                    f"query(ies) failed every retry and fallback ({cause})",
                    qids=sorted(bad_qids),
                    cause=cause,
                ))
            elif request.expired(now):
                # The deadline elapsed while the batch executed (or
                # retried): a late result is not delivered as if it made it.
                n_late += 1
                outcomes.append(_late(request, now, "answered after"))
            else:
                response = responses[request.request_id]
                response.stages = {**stages, queued.name: queued}
                outcomes.append(response)
        # _run_batch may already have failed a future: resolution is tried
        # once, and may lose.
        served: List[ServeResponse] = []
        for request, outcome in zip(batch.requests, outcomes):
            if request.future.try_resolve(outcome) and isinstance(
                outcome, ServeResponse
            ):
                served.append(outcome)

        # Batch-level stages observe once per batch, "queued" once per
        # member request.
        for name, timing in stages.items():
            wall_hist = self._m_stage_wall.get(name)
            if wall_hist is not None:
                wall_hist.observe(timing.wall_ms)
            sim_hist = self._m_stage_sim.get(name)
            if sim_hist is not None:
                sim_hist.observe(timing.sim_ms)
        for waited_ms in queued_ms:
            self._m_stage_wall["queued"].observe(waited_ms)
        for response in served:
            self._m_hist["request_latency_ms"].observe(
                response.latency_s * 1000.0
            )
        self.stats.add(
            n_served=len(served),
            n_quarantined=len(poisoned),
            n_timed_out=n_late,
            n_batches=1,
            n_queries_submitted=batch.n_submitted,
            n_queries_planned=batch.n_distinct - len(hits),
            n_cache_hits=len(hits),
            n_duplicates_eliminated=batch.n_duplicates_eliminated,
            sim_ms_total=report.sim_ms,
        )
        self._m_hist["batch_requests"].observe(batch.n_requests)
        self._m_hist["batch_queries"].observe(batch.n_submitted)
        self._m_hist["batch_distinct"].observe(batch.n_distinct)
        self._m_hist["batch_sim_ms"].observe(report.sim_ms)
        self._m_coalesce.set(self.stats.coalesce_ratio)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "running" if self.running else (
            "stopped" if self._stopped else "new"
        )
        return (
            f"QueryService({state}, window={self.config.window_ms}ms, "
            f"served={self.stats.n_served})"
        )


def _late(request: ServeRequest, now: float, what: str) -> DeadlineExceeded:
    """The failure of a request whose deadline passed (``what`` it did so
    long)."""
    waited_ms = (now - request.submitted_s) * 1000.0
    return DeadlineExceeded(
        f"request {request.request_id} {what} {waited_ms:.1f} ms, "
        f"past its deadline"
    )
