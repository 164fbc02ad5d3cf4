"""The batch contract (DESIGN.md §6, docs/architecture.md §"Answering a
batch") as the checks paranoia mode, the bench harness, the serve
simulation and the tests call: paranoia's structural pre-flight
(:func:`check_plan`; coverage is ``Database.optimize``'s), the one answer
rule (:func:`first_divergence`) against the reference or between two runs
(:func:`assert_same_answers`), and a finished batch (:func:`check_batch`).
A violation raises :class:`~repro.check.errors.CorrectnessError` carrying
the plan, the offending query and the first divergent group where known.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence, Tuple

from ..core.operators.results import QueryResult
from ..faults import InjectedFault
from ..obs.metrics import default_registry
from ..schema.query import GroupByQuery
from .errors import CorrectnessError, Divergence, PlanValidationError
from .reference import reference_answer
from .validate import validate_global_plan

if TYPE_CHECKING:  # pragma: no cover
    from ..core.executor import ClassFailure
    from ..core.optimizer.plans import GlobalPlan
    from ..engine.database import Database

def check_plan(db: "Database", plan: "GlobalPlan") -> None:
    """Structurally validate ``plan`` before it runs; a violation is as much
    a wrong answer as a bad result, so it raises :class:`CorrectnessError`."""
    with db.tracer.span(
        "check.validate", algorithm=plan.algorithm, n_queries=plan.n_queries
    ):
        try:
            validate_global_plan(db.schema, db.catalog, plan)
        except PlanValidationError as exc:
            raise CorrectnessError(
                f"global plan failed structural validation: {exc}", plan=plan
            ) from exc
    default_registry().counter(
        "check.plans_validated", "global plans structurally validated"
    ).inc()


def first_divergence(
    expected: Mapping[Tuple[int, ...], float],
    actual: Mapping[Tuple[int, ...], float],
) -> Optional[Divergence]:
    """The first (deterministically ordered) group where two answers
    differ, or None when they agree."""
    for key in sorted(set(expected) | set(actual)):
        if key not in actual:
            return Divergence("missing-group", key, expected[key], None)
        if key not in expected:
            return Divergence("extra-group", key, None, actual[key])
        want, got = expected[key], actual[key]
        if want != got:
            return Divergence("value-mismatch", key, want, got)
    return None


def check_result(
    db: "Database", result: QueryResult, plan: "Optional[GlobalPlan]" = None,
    context: str = "executed result",
) -> None:
    """Cross-check one result against the reference; raise on divergence."""
    expected = reference_answer(db, result.query)
    divergence = first_divergence(expected.groups, result.groups)
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
) -> int:
    """Cross-check a batch of results; returns how many were checked."""
    for result in results:
        check_result(db, result, plan=plan)
    default_registry().counter(
        "check.results_checked", "results cross-checked against the reference"
    ).inc(len(results))
    return len(results)


def recheck_cache_hits(db: "Database", hits: Mapping[int, QueryResult]) -> int:
    """Recompute a deterministic sample of served cache hits from scratch
    (the two lowest qids).

    Catches a stale cache (an invalidation path that was never hooked) the
    moment it serves a wrong answer.  Returns how many hits were rechecked.
    """
    chosen = [hits[qid] for qid in sorted(hits)[:2]]
    for result in chosen:
        check_result(db, result, context="cached result")
    if chosen:
        default_registry().counter(
            "check.cache_hits_rechecked",
            "cache hits recomputed from scratch under paranoia",
        ).inc(len(chosen))
    return len(chosen)


def assert_same_answers(
    expected: Iterable[QueryResult], actual: Iterable[QueryResult], who: str
) -> None:
    """Two runs (named ``who``) answered the same: the same qids on both
    sides, and no answer :func:`first_divergence` tells from its twin."""
    want = {result.query.qid: result for result in expected}
    got = {result.query.qid: result for result in actual}
    if want.keys() != got.keys():
        raise CorrectnessError(
            f"{who} answered different queries: qid(s) {sorted(got)}, "
            f"expected {sorted(want)}"
        )
    for qid, result in want.items():
        divergence = first_divergence(result.groups, got[qid].groups)
        if divergence is not None:
            raise CorrectnessError(
                f"{who} returned different answers for "
                f"{result.query.display_name()}: {divergence.describe()}",
                query=result.query,
                divergence=divergence,
            )


def check_batch(
    db: "Database",
    queries: Sequence[GroupByQuery],
    answers: Mapping[int, QueryResult],
    failures: "Sequence[ClassFailure]" = (),
) -> None:
    """One finished batch, at the database's current data: each query is
    answered (``answers``, by qid) or failed, not both; each failure is an
    injected fault over a whole class; each answer is the reference's."""
    failed = set()
    for failure in failures:
        if not isinstance(failure.error, InjectedFault):
            raise CorrectnessError(
                f"class on {failure.plan_class.source!r} failed with "
                f"{failure.error!r}, not a typed injected fault"
            )
        failed.update(failure.qids)
    submitted, answered = {query.qid for query in queries}, set(answers)
    if answered & failed or answered | failed != submitted:
        raise CorrectnessError(
            f"batch of qid(s) {sorted(submitted)} answered {sorted(answered)}"
            f" and failed {sorted(failed)}: each is one, not both"
        )
    check_results(db, list(answers.values()))
