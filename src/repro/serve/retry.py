"""Bounded retry with deterministic backoff on the simulated clock.

Under a recovery policy, ``Database.run_queries`` re-asks a batch's failed
queries a bounded number of times (``docs/architecture.md`` §"Answering a
batch").  Like everything else in the engine's measurement discipline, the
*delays* are simulated: a :class:`SimulatedClock` advances by the policy's
deterministic backoff instead of sleeping, so retries cost simulated
milliseconds — observable, reproducible, and free of wall-clock flakiness
in tests.

``retry.*`` metrics count attempts, failures, exhaustions, and backoff
spend exactly; ``retry.attempt`` spans make individual attempts visible in
a trace.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Type, TypeVar

from ..obs.metrics import default_registry
from ..obs.trace import NULL_TRACER
from .futures import ServeError

T = TypeVar("T")


class RetryExhausted(ServeError):
    """Every attempt the policy allowed failed; carries the last error."""

    def __init__(self, message: str, attempts: int, last_error: BaseException):
        super().__init__(message)
        self.attempts = attempts
        self.last_error = last_error


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to try, and how long to back off between tries.

    Backoff is deterministic exponential: the wait before attempt ``k``
    (2-based — there is no wait before the first attempt) is
    ``backoff_base_ms * backoff_multiplier ** (k - 2)`` simulated ms.
    As ``Database.run_queries``' ``recovery``, ``degrade`` also re-plans
    each query still failing alone on the raw fact table.
    """

    max_attempts: int = 3
    backoff_base_ms: float = 50.0
    backoff_multiplier: float = 2.0
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
        if self.backoff_multiplier < 1.0:
            raise ValueError(
                f"backoff_multiplier must be >= 1 "
                f"(got {self.backoff_multiplier})"
            )

    def backoff_ms(self, attempt: int) -> float:
        """Simulated wait before the given attempt (1-based; 0 for the
        first attempt, which never waits)."""
        if attempt <= 1:
            return 0.0
        return self.backoff_base_ms * self.backoff_multiplier ** (attempt - 2)

    def total_backoff_ms(self) -> float:
        """Simulated wait if every allowed attempt fails."""
        return sum(
            self.backoff_ms(attempt)
            for attempt in range(2, self.max_attempts + 1)
        )


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


def call_with_retry(
    policy: RetryPolicy,
    fn: Callable[[int], T],
    *,
    clock: Optional[SimulatedClock] = None,
    retry_on: Tuple[Type[BaseException], ...] = (Exception,),
    tracer=NULL_TRACER,
    label: str = "",
) -> T:
    """Call ``fn(attempt)`` until it returns, an unretryable error escapes,
    or the policy is exhausted.

    ``fn`` receives the 1-based attempt number.  Only ``retry_on`` errors
    are retried; anything else propagates immediately.  Between attempts
    the (optional) simulated clock advances by the policy's deterministic
    backoff — no wall-clock sleep ever happens.  Exhaustion raises
    :class:`RetryExhausted` chaining the last error.
    """
    metrics = default_registry()
    m_attempts = metrics.counter(
        "retry.attempts", "retryable operations attempted"
    )
    m_failures = metrics.counter(
        "retry.failures", "attempts that failed with a retryable error"
    )
    m_exhausted = metrics.counter(
        "retry.exhausted", "operations that failed every allowed attempt"
    )
    m_backoff = metrics.histogram(
        "retry.backoff_ms", "simulated backoff waits between attempts"
    )
    last_error: Optional[BaseException] = None
    for attempt in range(1, policy.max_attempts + 1):
        wait_ms = policy.backoff_ms(attempt)
        if wait_ms > 0.0:
            if clock is not None:
                clock.advance(wait_ms)
            m_backoff.observe(wait_ms)
        m_attempts.inc()
        with tracer.span(
            "retry.attempt", attempt=attempt, label=label
        ) as span:
            try:
                return fn(attempt)
            except retry_on as exc:
                last_error = exc
                m_failures.inc()
                span.set("failed", True)
                span.set("error", str(exc))
    m_exhausted.inc()
    assert last_error is not None
    raise RetryExhausted(
        f"{label or 'operation'} failed all {policy.max_attempts} "
        f"attempt(s); last error: {last_error}",
        attempts=policy.max_attempts,
        last_error=last_error,
    ) from last_error
