"""Request futures and the serve layer's error taxonomy.

A client that submits to the :class:`~repro.serve.service.QueryService`
gets a :class:`ServeFuture` back immediately; the scheduler thread resolves
it once the micro-batch carrying the request has executed.  Futures are
single-assignment: exactly one of :meth:`ServeFuture.set_result` /
:meth:`ServeFuture.set_exception` ever lands, and a second attempt is a
programming error.

Error taxonomy (all subclasses of :class:`ServeError`):

* :class:`AdmissionError` — the admission queue is at its configured depth
  bound; the submit call is rejected *immediately* (backpressure is
  load-shedding at the door, not silent unbounded queueing).
* :class:`DeadlineExceeded` — the request's deadline elapsed while it was
  still queued; it is failed without being planned or executed.
* :class:`ServiceStopped` — the service shut down (without draining) while
  the request was in flight.
* :class:`RequestQuarantined` — the request asked a query the door's
  recovery left failed (``docs/architecture.md`` §"Answering a batch"); it
  is failed alone while its batchmates complete.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..core.operators.results import QueryResult
from ..schema.query import GroupByQuery


class ServeError(RuntimeError):
    """Base class for everything the serve layer can fail a request with."""


class AdmissionError(ServeError):
    """The admission queue is full; the request was rejected at submit."""


class DeadlineExceeded(ServeError, TimeoutError):
    """The request's deadline elapsed before its batch started executing."""


class ServiceStopped(ServeError):
    """The service stopped (without draining) before answering."""


class RequestQuarantined(ServeError):
    """The request's queries exhausted every recovery path.

    Carries the underlying error (the :class:`~repro.faults.InjectedFault`
    the door's last attempt at the query died of) and the offending qids,
    so the caller can tell exactly which of its queries poisoned the
    request.
    Batchmates whose queries succeeded are unaffected.
    """

    def __init__(self, message: str, qids=(), cause: Optional[BaseException] = None):
        super().__init__(message)
        self.qids = tuple(qids)
        self.cause = cause


@dataclass(frozen=True)
class StageTiming:
    """One stage's share of a request's journey, on both clocks.

    ``wall_ms`` is host time spent in the stage; ``sim_ms`` is the
    simulated cost-clock charge (0.0 for stages that never touch storage,
    like queueing or coalescing).
    """

    name: str
    wall_ms: float = 0.0
    sim_ms: float = 0.0

    def as_dict(self) -> dict:
        """JSON-able form (used by the flight recorder)."""
        return {
            "name": self.name,
            "wall_ms": round(self.wall_ms, 3),
            "sim_ms": round(self.sim_ms, 3),
        }


@dataclass
class ServeResponse:
    """Everything a resolved request learns about its own handling."""

    request_id: int
    #: Results for every submitted query of this request, keyed by qid.
    results: Dict[int, QueryResult] = field(default_factory=dict)
    #: Which micro-batch answered (batches are numbered per service).
    batch_id: int = -1
    #: Queue + batching + execution time for this request, in seconds.
    latency_s: float = 0.0
    #: How many of this request's queries were answered by the result cache.
    n_cache_hits: int = 0
    #: How many were answered by another request's (or expression's)
    #: identical query in the same batch — the cross-session sharing win.
    n_coalesced: int = 0
    #: The request's own trace id (assigned at submit, carried end to end).
    trace_id: str = ""
    #: The trace id of the batch's span tree, when the batch was traced
    #: (flight recorder on, or an enclosing ``Database.trace()``).
    batch_trace_id: Optional[str] = None
    #: Per-stage latency breakdown of this request's journey, keyed by
    #: stage name (``queued`` / ``coalesce`` / ``plan`` / ``execute`` /
    #: ``gather`` / ``retry`` / ``degrade``); batch-level stages are shared
    #: by every request of the batch, ``queued`` is this request's own.
    stages: Dict[str, StageTiming] = field(default_factory=dict)

    @property
    def n_queries(self) -> int:
        """Number of queries this request submitted."""
        return len(self.results)

    def result_for(self, query: GroupByQuery) -> QueryResult:
        """The result of one submitted query, by its qid."""
        return self.results[query.qid]

    def stage_breakdown(self) -> str:
        """One line per stage: ``name wall_ms / sim_ms``, stable order."""
        order = (
            "queued", "coalesce", "plan", "execute", "gather", "retry",
            "degrade",
        )
        known = [self.stages[n] for n in order if n in self.stages]
        extra = [
            t for n, t in sorted(self.stages.items()) if n not in order
        ]
        return "\n".join(
            f"{t.name}: {t.wall_ms:.3f} wall-ms / {t.sim_ms:.3f} sim-ms"
            for t in known + extra
        )


class ServeFuture:
    """A write-once, event-backed handle to one request's outcome.

    Carries the request's ``trace_id`` from admission on, so a caller can
    correlate its wait with scheduler-side traces and flight-recorder
    entries before (and after) the future resolves.
    """

    def __init__(self, request_id: int, trace_id: str = ""):
        self.request_id = request_id
        self.trace_id = trace_id or f"req-{request_id:06d}"
        self._event = threading.Event()
        self._response: Optional[ServeResponse] = None
        self._exception: Optional[BaseException] = None

    def done(self) -> bool:
        """Whether the request has been resolved (result or error)."""
        return self._event.is_set()

    def set_result(self, response: ServeResponse) -> None:
        """Resolve with a response (scheduler-side; single assignment)."""
        if self._event.is_set():
            raise RuntimeError(
                f"future for request {self.request_id} resolved twice"
            )
        self._response = response
        self._event.set()

    def set_exception(self, exc: BaseException) -> None:
        """Resolve with an error (scheduler-side; single assignment)."""
        if self._event.is_set():
            raise RuntimeError(
                f"future for request {self.request_id} resolved twice"
            )
        self._exception = exc
        self._event.set()

    def try_set_result(self, response: ServeResponse) -> bool:
        """Resolve with a response unless already resolved; returns whether
        this call won.  The scheduler uses this on paths where a request
        may legitimately have been failed already (deadline expiry during
        execution, quarantine) — losing the race must not crash the loop."""
        if self._event.is_set():
            return False
        self.set_result(response)
        return True

    def try_set_exception(self, exc: BaseException) -> bool:
        """Resolve with an error unless already resolved; returns whether
        this call won (see :meth:`try_set_result`)."""
        if self._event.is_set():
            return False
        self.set_exception(exc)
        return True

    def result(self, timeout: Optional[float] = None) -> ServeResponse:
        """Block until resolved; return the response or raise the error.

        ``timeout`` bounds only this wait (seconds); on expiry a
        :class:`TimeoutError` is raised and the request itself stays in
        flight — a later call can still collect it.
        """
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"request {self.request_id} still pending after "
                f"{timeout:g}s wait"
            )
        if self._exception is not None:
            raise self._exception
        assert self._response is not None
        return self._response

    def exception(self, timeout: Optional[float] = None) -> Optional[BaseException]:
        """Block until resolved; return the error (None on success)."""
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"request {self.request_id} still pending after "
                f"{timeout:g}s wait"
            )
        return self._exception

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending"
        if self._event.is_set():
            state = "failed" if self._exception is not None else "done"
        return f"ServeFuture(request={self.request_id}, {state})"
