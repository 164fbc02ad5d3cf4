"""Plan representation: local plans, shared-base-table classes, global plans.

Terminology follows the paper:

* a **local plan** evaluates one query from one materialized group-by (its
  *base table*) with one star-join method;
* a **class** (Sections 5–6) is a set of local plans sharing one base table —
  the unit the shared operators of Section 3 execute together;
* a **global plan** is the set of classes covering every query of the MDX
  expression.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Collection, Iterable, List, Sequence, Tuple

from ...schema.query import GroupByQuery


def left_sum(addends: Iterable[float], start: float = 0.0) -> float:
    """``start + a0 + a1 + …`` left to right — how every cost total is
    added.  Builtin ``sum`` is Neumaier-compensated from Python 3.12, which
    would make estimates depend on the interpreter version."""
    total = start
    for addend in addends:
        total += addend
    return total


class JoinMethod(Enum):
    """The paper's two star-join methods, plus the DAG layer's derive step
    (a query answered from a shared in-class sub-aggregate instead of the
    base-table scan — see :mod:`repro.dag`)."""

    HASH = "hash-based SJ"
    INDEX = "index-based SJ"
    DERIVE = "derive from shared sub-aggregate"


@dataclass(frozen=True)
class LocalPlan:
    """One query evaluated from one base table with one join method — what
    was decided, nothing else.  Per-member estimates (standalone cost, the
    paper's ``CostOfUsing`` marginal) are the search's working quantities;
    :func:`repro.core.explain.explain_plan` recomputes them for display."""

    query: GroupByQuery
    source: str
    method: JoinMethod


@dataclass(frozen=True)
class DeriveStep:
    """One shared sub-aggregate materialized inside a class — the one
    spelling of a derive step, from the dag search to the operator.

    ``intermediate`` is a synthetic, predicate-free group-by query at the
    meet of the derived queries' required levels; the class's shared scan
    computes it once, and every member in ``queries`` (all planned with
    :attr:`JoinMethod.DERIVE`) is answered by re-aggregating the
    intermediate's in-memory result instead of the base-table scan.

    ``node_key`` is the structural hash of the DAG OR-node this step
    materializes (see :mod:`repro.dag.nodes`); ``est_rows`` the model's
    estimate of the intermediate's group count.
    """

    intermediate: GroupByQuery
    queries: Tuple[GroupByQuery, ...]
    est_rows: float = 0.0
    node_key: str = ""

    @property
    def qids(self) -> Tuple[int, ...]:
        """The derived members' query ids, in member order."""
        return tuple(query.qid for query in self.queries)

    def without(self, qids: Collection[int]) -> "DeriveStep":
        """This step minus the members whose qid is in ``qids`` (possibly
        none left: the caller drops a step it emptied)."""
        kept = tuple(q for q in self.queries if q.qid not in qids)
        return replace(self, queries=kept)


@dataclass
class PlanClass:
    """A set of local plans sharing one base table.

    ``derives`` is empty for every algorithm of the paper.  With derive
    steps (the ``dag`` optimizer's) the class still runs one shared scan:
    it feeds the hash / index members *and* each step's intermediate
    aggregate, and the derived members then consume the (much smaller)
    intermediates."""

    source: str
    plans: List[LocalPlan] = field(default_factory=list)
    est_cost_ms: float = 0.0
    derives: List[DeriveStep] = field(default_factory=list)

    @property
    def queries(self) -> List[GroupByQuery]:
        """The queries this object covers, in plan order."""
        return [plan.query for plan in self.plans]

    @property
    def methods(self) -> List[JoinMethod]:
        """Per-plan join methods, aligned with ``plans``."""
        return [plan.method for plan in self.plans]

    @property
    def method_signature(self) -> str:
        """The join methods by initial, in plan order: ``H+H+I``."""
        return "+".join(plan.method.name[0] for plan in self.plans)

    @property
    def is_pure_hash(self) -> bool:
        """True when every plan in the class is a hash join."""
        return all(p.method is JoinMethod.HASH for p in self.plans)

    @property
    def is_pure_index(self) -> bool:
        """True when every plan in the class is an index join."""
        return all(p.method is JoinMethod.INDEX for p in self.plans)

    @property
    def has_derives(self) -> bool:
        """True when the class carries shared sub-aggregate derive steps."""
        return bool(self.derives)

    @property
    def operator_kind(self) -> str:
        """The physical operator this class lowers onto, named as the
        suffix of its ``operator.<kind>`` span.

        The one statement of operator choice: the executor dispatches on
        it, plan validation checks it, EXPLAIN renders it.  A class with
        derive steps, only hash plans, or a hash/index mix runs the shared
        scan (Sections 3.1 / 3.3); only index plans, the (shared) index
        join (Section 3.2).
        """
        if not self.plans:
            raise ValueError(
                f"class on {self.source!r} is empty: no operator applies"
            )
        if self.has_derives:
            return "shared_dag"
        if self.is_pure_hash:
            return "shared_scan_hash"
        if self.is_pure_index:
            return "index_star" if len(self.plans) == 1 else "shared_index"
        return "shared_hybrid"


@dataclass
class GlobalPlan:
    """The full plan for one multi-query optimization problem."""

    algorithm: str
    classes: List[PlanClass] = field(default_factory=list)
    #: Planning-effort metadata: ``Database.optimize`` adds
    #: ``plan_costings`` (int) and ``planning_s`` (float); the dag optimizer
    #: leaves its :class:`~repro.dag.search.SearchStats` under ``"dag"``.
    search_stats: dict = field(default_factory=dict)

    @property
    def est_cost_ms(self) -> float:
        """Model-estimated cost in simulated milliseconds."""
        return left_sum(cls.est_cost_ms for cls in self.classes)

    @property
    def queries(self) -> List[GroupByQuery]:
        """The queries this object covers, in plan order."""
        return [plan.query for cls in self.classes for plan in cls.plans]

    @property
    def n_queries(self) -> int:
        """Number of queries the plan covers."""
        return sum(len(cls.plans) for cls in self.classes)

    @property
    def signature(self) -> str:
        """Every class's source and join methods: ``ABCD(H+H); A'B'C'D(I)``."""
        return "; ".join(
            f"{cls.source}({cls.method_signature})" for cls in self.classes
        )

    def validate(
        self,
        queries: Sequence[GroupByQuery],
        allow_duplicate_sources: bool = False,
    ) -> None:
        """Check the plan covers exactly the given queries, once each.

        Merging algorithms must not leave two classes on the same base table;
        the deliberately-unmerged naive baseline passes
        ``allow_duplicate_sources=True``.
        """
        planned = sorted(q.qid for q in self.queries)
        asked = sorted(q.qid for q in queries)
        if planned != asked:
            raise ValueError(
                f"plan covers query ids {planned}, expected {asked}"
            )
        if not allow_duplicate_sources:
            seen_sources = [cls.source for cls in self.classes]
            if len(seen_sources) != len(set(seen_sources)):
                raise ValueError(
                    f"two classes share a base table: {seen_sources} "
                    f"(they should have been merged)"
                )
