"""Differential cross-checking of executed results against ground truth.

The executor (and ``Database.run_queries``, for cache hits) call in here
when paranoia mode is on: every
:class:`~repro.core.operators.results.QueryResult` a shared operator
produces — and a sample of every batch's cache hits — is recomputed by the
naive reference evaluator and compared group-for-group.  The comparison
demands the *same set of group keys* and equal aggregate values (within
``rel_tol``, defaulting to the suite-wide 1e-9 — tight enough that any
routing or staleness bug trips it, loose enough to absorb float summation
order).

A mismatch raises :class:`~repro.check.errors.CorrectnessError` carrying
the plan, the offending query, and the first divergent group.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Mapping, Optional, Sequence, Tuple

from ..core.operators.results import QueryResult
from ..obs.metrics import default_registry
from .errors import CorrectnessError, Divergence
from .reference import reference_answer

if TYPE_CHECKING:  # pragma: no cover
    from ..core.optimizer.plans import GlobalPlan
    from ..engine.database import Database

#: Relative tolerance for aggregate-value equality.
DEFAULT_REL_TOL = 1e-9

#: How many of a batch's cache hits are recomputed per serve.
DEFAULT_HIT_SAMPLE = 2


def first_divergence(
    expected: Mapping[Tuple[int, ...], float],
    actual: Mapping[Tuple[int, ...], float],
    rel_tol: float = DEFAULT_REL_TOL,
) -> Optional[Divergence]:
    """The first (deterministically ordered) group where two answers
    differ, or None when they agree."""
    for key in sorted(set(expected) | set(actual)):
        if key not in actual:
            return Divergence("missing-group", key, expected[key], None)
        if key not in expected:
            return Divergence("extra-group", key, None, actual[key])
        want, got = expected[key], actual[key]
        scale = max(abs(want), abs(got), 1.0)
        if abs(want - got) > rel_tol * scale:
            return Divergence("value-mismatch", key, want, got)
    return None


def check_result(
    db: "Database",
    result: QueryResult,
    plan: "Optional[GlobalPlan]" = None,
    rel_tol: float = DEFAULT_REL_TOL,
    context: str = "executed result",
) -> None:
    """Cross-check one result against the reference; raise on divergence."""
    expected = reference_answer(db, result.query)
    divergence = first_divergence(expected.groups, result.groups, rel_tol)
    if divergence is None:
        return
    default_registry().counter(
        "check.divergences", "differential checks that found a wrong answer"
    ).inc()
    raise CorrectnessError(
        f"{context} for {result.query.display_name()} diverges from the "
        f"reference evaluator: {divergence.describe()} "
        f"({expected.n_groups} group(s) expected, {result.n_groups} got)",
        plan=plan,
        query=result.query,
        divergence=divergence,
    )


def check_results(
    db: "Database",
    results: Sequence[QueryResult],
    plan: "Optional[GlobalPlan]" = None,
    rel_tol: float = DEFAULT_REL_TOL,
) -> int:
    """Cross-check a batch of results; returns how many were checked."""
    for result in results:
        check_result(db, result, plan=plan, rel_tol=rel_tol)
    default_registry().counter(
        "check.results_checked", "results cross-checked against the reference"
    ).inc(len(results))
    return len(results)


def recheck_cache_hits(
    db: "Database",
    hits: Dict[int, QueryResult],
    sample: int = DEFAULT_HIT_SAMPLE,
    rel_tol: float = DEFAULT_REL_TOL,
) -> int:
    """Recompute a deterministic sample of served cache hits from scratch.

    Catches a stale cache (an invalidation path that was never hooked) the
    moment it serves a wrong answer.  Returns how many hits were rechecked.
    """
    chosen = [hits[qid] for qid in sorted(hits)[: max(0, sample)]]
    for result in chosen:
        check_result(db, result, rel_tol=rel_tol, context="cached result")
    if chosen:
        default_registry().counter(
            "check.cache_hits_rechecked",
            "cache hits recomputed from scratch under paranoia",
        ).inc(len(chosen))
    return len(chosen)
