"""Micro-batching policy: configuration, admitted requests, and batch
assembly.

The scheduler coalesces every request that arrives inside one *batching
window* into a single :class:`MicroBatch`.  Assembly is where the paper's
multi-query sharing is manufactured across sessions:

* the union of all requests' component queries is deduplicated by semantic
  identity (:func:`repro.engine.session.coalesce`) — each distinct query
  will be planned and executed once, no matter how many clients asked it;
* a membership map records which requests asked for which distinct query,
  so results fan back out after execution.

The window is the throughput/latency dial (see ``docs/serving.md``): a
wider window coalesces more concurrent work into one global plan (more
shared scans, fewer duplicate evaluations) but adds up to that much
latency to the earliest request in the batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..engine.session import QueryKey, coalesce
from ..schema.query import GroupByQuery
from .futures import ServeFuture
from .retry import RetryPolicy


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of one :class:`~repro.serve.service.QueryService`.

    ``window_ms`` — how long the scheduler keeps collecting after the
    first request of a batch arrives.  ``max_batch_requests`` closes the
    window early once that many requests are aboard.  ``max_queue_depth``
    bounds the admission queue; submits beyond it are rejected with
    :class:`~repro.serve.futures.AdmissionError`.  ``n_workers`` is
    ignored: the scheduler thread runs every class of a batch's plan in
    plan order (the field stays so existing callers keep constructing).
    ``default_deadline_ms`` (None = no deadline) applies to requests that
    do not bring their own.  ``cold`` keeps the paper's cold-start
    measurement discipline; warm classes share the database's buffer
    pool.

    Resilience knobs: ``max_attempts``, ``backoff_base_ms`` and
    ``degrade`` make up :attr:`recovery`, the policy every batch is
    answered under —
    recovery is the door's, stated once in ``docs/architecture.md``
    §"Answering a batch" (step 5).

    Telemetry knobs (see ``docs/observability.md``): ``flight_recorder``
    is the capacity of the service's in-memory ring of recent batch traces
    and fault/retry/quarantine events (0 disables recording *and* the
    per-batch tracer the recorder installs); ``flight_recorder_path``
    names a JSON file the ring is dumped to automatically when a batch
    fails wholesale (None = dump only on demand).
    """

    window_ms: float = 10.0
    max_batch_requests: int = 64
    max_queue_depth: int = 256
    n_workers: int = 4
    algorithm: str = "gg"
    cold: bool = True
    default_deadline_ms: Optional[float] = None
    max_attempts: int = 3
    backoff_base_ms: float = 50.0
    degrade: bool = True
    flight_recorder: int = 32
    flight_recorder_path: Optional[str] = None

    def __post_init__(self) -> None:
        self.recovery  # the policy validates the resilience knobs
        if self.flight_recorder < 0:
            raise ValueError(
                f"flight_recorder capacity must be >= 0 "
                f"(got {self.flight_recorder})"
            )
        if self.flight_recorder_path and not self.flight_recorder:
            raise ValueError("flight_recorder_path needs a flight_recorder > 0")
        if self.window_ms < 0:
            raise ValueError(f"window_ms must be >= 0 (got {self.window_ms})")
        if self.max_batch_requests <= 0:
            raise ValueError(
                f"max_batch_requests must be positive "
                f"(got {self.max_batch_requests})"
            )
        if self.max_queue_depth <= 0:
            raise ValueError(
                f"max_queue_depth must be positive "
                f"(got {self.max_queue_depth})"
            )
        if self.default_deadline_ms is not None and self.default_deadline_ms <= 0:
            raise ValueError(
                f"default_deadline_ms must be positive when set "
                f"(got {self.default_deadline_ms})"
            )

    @property
    def recovery(self) -> RetryPolicy:
        """The policy ``Database.run_queries`` answers every batch under."""
        return RetryPolicy(
            self.max_attempts, self.backoff_base_ms, degrade=self.degrade
        )


@dataclass
class ServeRequest:
    """One admitted client request, queued for the next micro-batch."""

    request_id: int
    queries: List[GroupByQuery]
    future: ServeFuture
    #: Monotonic submit time (latency measurement baseline).
    submitted_s: float
    #: Absolute monotonic deadline, or None for "wait forever".
    deadline_s: Optional[float] = None
    #: Client label, for per-client accounting in reports.
    client: str = ""

    def expired(self, now_s: float) -> bool:
        """Whether the deadline passed as of ``now_s``."""
        return self.deadline_s is not None and now_s >= self.deadline_s


@dataclass
class MicroBatch:
    """One coalesced unit of work: requests in, distinct queries out.

    ``members`` maps each distinct query's semantic key to every
    ``(request, submitted query)`` pair that asked it; fan-out walks this
    map after execution.
    """

    batch_id: int
    requests: List[ServeRequest]
    distinct: List[GroupByQuery] = field(default_factory=list)
    members: Dict[QueryKey, List[Tuple[ServeRequest, GroupByQuery]]] = field(
        default_factory=dict
    )
    #: Monotonic time the scheduler picked the batch up (the baseline the
    #: per-request ``queued`` stage is measured against).
    started_s: float = 0.0

    @property
    def n_requests(self) -> int:
        """Requests coalesced into this batch."""
        return len(self.requests)

    @property
    def n_submitted(self) -> int:
        """Total queries submitted across the batch (duplicates included)."""
        return sum(len(request.queries) for request in self.requests)

    @property
    def n_distinct(self) -> int:
        """Distinct queries after cross-request deduplication."""
        return len(self.distinct)

    @property
    def n_duplicates_eliminated(self) -> int:
        """Submitted minus distinct: evaluations saved by coalescing."""
        return self.n_submitted - self.n_distinct

    @property
    def coalesce_ratio(self) -> float:
        """Submitted / distinct (1.0 means no cross-request sharing)."""
        return self.n_submitted / self.n_distinct if self.distinct else 1.0


def assemble_batch(batch_id: int, requests: List[ServeRequest]) -> MicroBatch:
    """Deduplicate the requests' queries into one :class:`MicroBatch`
    (:func:`repro.engine.session.coalesce` over the requests in admission
    order, so assembly is deterministic for a given batch)."""
    distinct, members = coalesce(
        (request, query) for request in requests for query in request.queries
    )
    return MicroBatch(
        batch_id=batch_id, requests=requests, distinct=distinct, members=members
    )
