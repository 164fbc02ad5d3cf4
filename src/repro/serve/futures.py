"""Request futures and the serve layer's error taxonomy.

A client that submits to the :class:`~repro.serve.service.QueryService`
gets a :class:`ServeFuture` back immediately; the scheduler thread resolves
it once the micro-batch carrying the request has executed.  Futures are
single-assignment: exactly one of ``set_result`` / ``set_exception`` ever
lands, and a second attempt raises
:class:`concurrent.futures.InvalidStateError`.

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

from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..core.operators.results import QueryResult
from ..obs.metrics import STAGES
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
        """One line per stage: ``name wall_ms / sim_ms``, in
        :data:`STAGES` order."""
        known = [self.stages[n] for n in STAGES if n in self.stages]
        extra = [
            t for n, t in sorted(self.stages.items()) if n not in STAGES
        ]
        return "\n".join(
            f"{t.name}: {t.wall_ms:.3f} wall-ms / {t.sim_ms:.3f} sim-ms"
            for t in known + extra
        )


class ServeFuture(Future):
    """A :class:`concurrent.futures.Future` for one request's
    :class:`ServeResponse`.

    Carries the request's ``request_id`` and ``trace_id`` from admission
    on, so a caller can correlate its wait with scheduler-side traces and
    flight-recorder entries before (and after) the future resolves.
    ``result(timeout=)`` bounds only the wait: on expiry the request stays
    in flight and a later call can still collect it.
    """

    def __init__(self, request_id: int, trace_id: str = ""):
        super().__init__()
        self.request_id = request_id
        self.trace_id = trace_id or f"req-{request_id:06d}"

    def try_resolve(self, outcome) -> bool:
        """Resolve with ``outcome`` — an error if it is an exception, else
        the response — unless already resolved; returns whether this call
        won.  The scheduler resolves through this on paths where a request
        may legitimately have been failed already (deadline expiry during
        execution, quarantine): losing the race must not crash the loop."""
        try:
            if isinstance(outcome, BaseException):
                self.set_exception(outcome)
            else:
                self.set_result(outcome)
        except InvalidStateError:
            return False
        return True
