"""Structured errors raised by the differential correctness harness.

Every failure the harness can detect maps to one of three exception types:

* :class:`PlanValidationError` — a :class:`~repro.core.optimizer.plans.GlobalPlan`
  is structurally wrong *before* execution (a query uncovered or covered
  twice, a class source that is not a lattice ancestor of a member query, a
  method mix no operator implements);
* :class:`PlanCoverageError` — a result was asked of a report whose plan
  never covered the query (the runtime shadow of the validator's coverage
  check);
* :class:`CorrectnessError` — an *executed* answer diverged from the
  brute-force reference evaluator.  It carries the plan, the offending
  query, and the first divergent group so a failure is immediately
  actionable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from ..core.optimizer.plans import GlobalPlan
    from ..schema.query import GroupByQuery


class PlanValidationError(ValueError):
    """A global plan broke the coverage or the structural rule (see
    :mod:`repro.check.validate`)."""


class PlanCoverageError(KeyError):
    """A query's result was requested from a report whose plan does not
    cover that query.

    Subclasses :class:`KeyError` so existing ``except KeyError`` callers
    keep working, but renders its message verbatim (KeyError's default
    ``str`` wraps the message in quotes)."""

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message

    def __str__(self) -> str:
        return self.message


@dataclass(frozen=True)
class Divergence:
    """The first point where an executed answer departs from ground truth.

    ``kind`` is one of ``"missing-group"`` (the reference has the group,
    the engine dropped it), ``"extra-group"`` (the engine invented it), or
    ``"value-mismatch"`` (same group, different aggregate).  ``expected`` /
    ``actual`` are None when the group is absent on that side.
    """

    kind: str
    group: Tuple[int, ...]
    expected: Optional[float]
    actual: Optional[float]

    def describe(self) -> str:
        """Human-readable one-line/short rendering for display."""
        return (
            f"{self.kind} at group {self.group}: "
            f"expected {self.expected!r}, got {self.actual!r}"
        )


class CorrectnessError(AssertionError):
    """A shared-plan answer diverged from the reference evaluator.

    Structured: ``plan`` is the :class:`GlobalPlan` being executed (when
    known), ``query`` the offending :class:`GroupByQuery`, ``divergence``
    the first differing group (None for non-result failures, e.g. a plan
    that failed validation under paranoia).
    """

    def __init__(
        self,
        message: str,
        *,
        plan: "Optional[GlobalPlan]" = None,
        query: "Optional[GroupByQuery]" = None,
        divergence: Optional[Divergence] = None,
    ):
        super().__init__(message)
        self.plan = plan
        self.query = query
        self.divergence = divergence
