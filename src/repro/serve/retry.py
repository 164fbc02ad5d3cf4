"""The recovery policy and the simulated clock its backoff moves.

Under a :class:`RetryPolicy`, ``Database.run_queries`` re-asks a batch's
failed queries in a bounded loop (``docs/architecture.md`` §"Answering a
batch", step 5): a ``retry.attempt`` span and ``retry.attempts`` /
``retry.failures`` / ``retry.exhausted`` counts per call.  The door never
waits.  The policy's deterministic backoff is the query service's alone:
``QueryService`` advances its :class:`SimulatedClock` by it for each
re-ask the door reports, and observes ``retry.backoff_ms``, so retries cost
simulated milliseconds — observable, reproducible, and free of wall-clock
flakiness in tests.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to try, and how long to back off between tries.

    Backoff is deterministic exponential: the wait before attempt ``k``
    (2-based — there is no wait before the first attempt) is
    ``backoff_base_ms * 2 ** (k - 2)`` simulated ms.
    As ``Database.run_queries``' ``recovery``, ``degrade`` also re-plans
    each query still failing alone on the raw fact table.
    """

    max_attempts: int = 3
    backoff_base_ms: float = 50.0
    degrade: bool = False

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1 (got {self.max_attempts})"
            )
        if self.backoff_base_ms < 0:
            raise ValueError(
                f"backoff_base_ms must be >= 0 (got {self.backoff_base_ms})"
            )

    def backoff_ms(self, attempt: int) -> float:
        """Simulated wait before the given attempt (1-based; 0 for the
        first attempt, which never waits)."""
        if attempt <= 1:
            return 0.0
        return self.backoff_base_ms * 2 ** (attempt - 2)


class SimulatedClock:
    """A monotone simulated-millisecond counter (thread-safe).

    Retry backoff advances it instead of sleeping; tests assert its exact
    final reading instead of racing wall time."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._now_ms = 0.0

    @property
    def now_ms(self) -> float:
        """Current simulated time in milliseconds."""
        with self._lock:
            return self._now_ms

    def advance(self, delta_ms: float) -> float:
        """Move time forward; returns the new reading."""
        if delta_ms < 0:
            raise ValueError(f"cannot advance by {delta_ms} ms")
        with self._lock:
            self._now_ms += delta_ms
            return self._now_ms
