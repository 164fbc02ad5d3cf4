"""Structural validation of a global plan, before anything executes.

A :class:`~repro.core.optimizer.plans.GlobalPlan` is structurally sound for
a submitted query set when

1. **coverage** — every submitted query appears in exactly one class (and
   nothing else does);
2. **ancestry** — each class's source table is a lattice ancestor of every
   member query: its stored levels are fine enough for the query's target
   group-by *and* its predicates, and its measure column is
   aggregate-compatible (:func:`repro.schema.lattice.source_can_answer`);
3. **method mix** — the class's per-plan join methods name an operator the
   executor actually has (see :func:`expected_operator`), and every
   index-method plan has a usable join index on its source;
4. **no duplicate sources** — merging algorithms must not leave two classes
   on one base table (the naive baseline is exempt, as in
   :meth:`GlobalPlan.validate`).

Violations raise :class:`~repro.check.errors.PlanValidationError` with a
message naming the class, query, and rule broken.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional, Sequence

from ..core.optimizer.plans import GlobalPlan, JoinMethod, PlanClass
from ..schema.lattice import intermediate_source_aggregate, source_can_answer
from ..schema.query import Aggregate, GroupByQuery
from ..schema.star import StarSchema
from ..storage.catalog import Catalog, TableEntry
from .errors import PlanValidationError

#: Algorithms whose plans legitimately carry several classes on one source.
UNMERGED_ALGORITHMS = frozenset({"naive"})


def expected_operator(plan_class: PlanClass) -> str:
    """The physical operator the executor lowers this class onto —
    :attr:`PlanClass.operator_kind`, the same property the executor
    dispatches on, so validation and execution cannot drift apart."""
    try:
        return plan_class.operator_kind
    except ValueError as exc:
        raise PlanValidationError(str(exc)) from None


def _validate_derives(entry: TableEntry, plan_class: PlanClass) -> None:
    """Validate a DAG class's derive steps (see :mod:`repro.dag`):

    * each intermediate is predicate-free, AVG-free, and answerable from
      the class's source;
    * each derived qid is a class member planned with the DERIVE method,
      and every DERIVE-method member is claimed by exactly one step;
    * each derived query is answerable from its intermediate — fine-enough
      levels and a compatible measure kind.
    """
    by_qid = {p.query.qid: p for p in plan_class.plans}
    claimed = Counter()
    for step in plan_class.derives:
        intermediate = step.intermediate
        if intermediate.predicates:
            raise PlanValidationError(
                f"derive intermediate {intermediate.display_name()} on "
                f"{plan_class.source!r} carries predicates; intermediates "
                f"must be predicate-free"
            )
        if intermediate.aggregate is Aggregate.AVG:
            raise PlanValidationError(
                f"derive intermediate {intermediate.display_name()} is an "
                f"AVG; AVG is not re-aggregable and can never be derived"
            )
        if not source_can_answer(
            entry.levels, entry.source_aggregate, intermediate
        ):
            raise PlanValidationError(
                f"derive intermediate {intermediate.display_name()} is not "
                f"computable from {plan_class.source!r} "
                f"(levels {entry.levels})"
            )
        if not step.qids:
            raise PlanValidationError(
                f"derive step {intermediate.display_name()} on "
                f"{plan_class.source!r} answers no member queries"
            )
        inter_agg = intermediate_source_aggregate(
            entry.source_aggregate, intermediate
        )
        for qid in step.qids:
            claimed[qid] += 1
            plan = by_qid.get(qid)
            if plan is None:
                raise PlanValidationError(
                    f"derive step {intermediate.display_name()} claims qid "
                    f"{qid}, which is not a member of the class on "
                    f"{plan_class.source!r}"
                )
            if plan.method is not JoinMethod.DERIVE:
                raise PlanValidationError(
                    f"{plan.query.display_name()} is claimed by derive step "
                    f"{intermediate.display_name()} but planned as "
                    f"{plan.method.name}"
                )
            if not source_can_answer(
                intermediate.groupby.levels, inter_agg, plan.query
            ):
                raise PlanValidationError(
                    f"{plan.query.display_name()} is not derivable from "
                    f"intermediate {intermediate.display_name()} (levels "
                    f"{intermediate.groupby.levels}, measure {inter_agg!r})"
                )
    over_claimed = sorted(q for q, n in claimed.items() if n > 1)
    if over_claimed:
        raise PlanValidationError(
            f"qid(s) {over_claimed} are claimed by more than one derive "
            f"step on {plan_class.source!r}"
        )
    derive_members = sorted(
        p.query.qid
        for p in plan_class.plans
        if p.method is JoinMethod.DERIVE
    )
    unclaimed = sorted(set(derive_members) - set(claimed))
    if unclaimed:
        raise PlanValidationError(
            f"qid(s) {unclaimed} on {plan_class.source!r} are planned with "
            f"the DERIVE method but no derive step produces them"
        )


def validate_class(
    schema: StarSchema, catalog: Catalog, plan_class: PlanClass
) -> None:
    """Validate one class: source ancestry, aggregates, and method mix."""
    operator = expected_operator(plan_class)  # also rejects empty classes
    if plan_class.source not in catalog:
        raise PlanValidationError(
            f"class source {plan_class.source!r} is not a registered table"
        )
    entry = catalog.get(plan_class.source)
    if len(entry.levels) != schema.n_dims:
        raise PlanValidationError(
            f"source {plan_class.source!r} stores {len(entry.levels)} "
            f"dimension(s); the schema has {schema.n_dims}"
        )
    for plan in plan_class.plans:
        query = plan.query
        if not isinstance(plan.method, JoinMethod):
            raise PlanValidationError(
                f"{query.display_name()} carries an unknown join method "
                f"{plan.method!r}"
            )
        if not source_can_answer(entry.levels, entry.source_aggregate, query):
            raise PlanValidationError(
                f"source {plan_class.source!r} (levels {entry.levels}, "
                f"measure {entry.source_aggregate or 'raw'}) is not a "
                f"lattice ancestor able to answer {query.display_name()} "
                f"(required levels {query.required_levels()}, aggregate "
                f"{query.aggregate.value})"
            )
        # The exact-or-finer-level rule the index operators apply.
        if plan.method is JoinMethod.INDEX and all(
            entry.covering_index(pred.dim_index, pred.level) is None
            for pred in query.predicates
        ):
            raise PlanValidationError(
                f"{query.display_name()} is planned as an index join on "
                f"{plan_class.source!r}, but no join index covers any of "
                f"its predicates (operator {operator!r} would fail)"
            )
        if (
            plan.method is JoinMethod.DERIVE
            and not plan_class.has_derives
        ):
            raise PlanValidationError(
                f"{query.display_name()} carries the DERIVE method but the "
                f"class on {plan_class.source!r} has no derive steps"
            )
    if plan_class.has_derives:
        _validate_derives(entry, plan_class)


def validate_global_plan(
    schema: StarSchema,
    catalog: Catalog,
    plan: GlobalPlan,
    queries: Optional[Sequence[GroupByQuery]] = None,
    allow_duplicate_sources: Optional[bool] = None,
) -> None:
    """Validate ``plan`` structurally; raise :class:`PlanValidationError`.

    ``queries`` is the submitted batch; when omitted, coverage is checked
    for internal consistency only (no query planned twice).
    ``allow_duplicate_sources`` defaults to whether the plan's algorithm is
    a deliberately-unmerged baseline.
    """
    planned = Counter(q.qid for q in plan.queries)
    duplicated = sorted(qid for qid, n in planned.items() if n > 1)
    if duplicated:
        raise PlanValidationError(
            f"queries with qid(s) {duplicated} appear in more than one "
            f"class; each query must be covered exactly once"
        )
    if queries is not None:
        asked = {q.qid: q for q in queries}
        missing = sorted(qid for qid in asked if qid not in planned)
        extra = sorted(qid for qid in planned if qid not in asked)
        if missing:
            names = [asked[qid].display_name() for qid in missing]
            raise PlanValidationError(
                f"plan covers no class for submitted query(ies) "
                f"{', '.join(names)} (qid(s) {missing})"
            )
        if extra:
            raise PlanValidationError(
                f"plan covers qid(s) {extra} that were never submitted"
            )
    if allow_duplicate_sources is None:
        allow_duplicate_sources = plan.algorithm in UNMERGED_ALGORITHMS
    if not allow_duplicate_sources:
        sources = [cls.source for cls in plan.classes]
        repeated = sorted(
            source for source, n in Counter(sources).items() if n > 1
        )
        if repeated:
            raise PlanValidationError(
                f"two classes share base table(s) {repeated}; a merging "
                f"algorithm should have combined them"
            )
    for plan_class in plan.classes:
        validate_class(schema, catalog, plan_class)
