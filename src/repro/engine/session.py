"""Query sessions: batch several MDX expressions, deduplicate their
component queries, and optimize the whole batch as one unit.

The paper optimizes the component queries of *one* MDX expression; a client
session usually issues several related expressions (a dashboard refresh, a
drill-down sequence).  Two natural extensions, both implemented here:

* **Cross-expression optimization** — the union of all component queries is
  handed to one optimizer run, so sharing is found across expressions, not
  just within one.
* **Duplicate elimination** — different expressions frequently denote some
  identical component queries (same target group-by, same predicates, same
  aggregate).  Each distinct query is planned and evaluated once; results
  fan back out to every submission.

A session is one of the front doors onto :meth:`Database.run_queries
<repro.engine.database.Database.run_queries>` (``docs/architecture.md``
§"Answering a batch"): it adds :func:`coalesce` before the door and fan-out
after it, and nothing else — cache, validation and retention are the
door's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.executor import ExecutionReport
from ..core.operators.results import QueryResult
from ..schema.query import GroupByQuery
from .database import Database

#: Semantic identity of a query (label and qid excluded).
QueryKey = Tuple[Tuple[int, ...], frozenset, str]


def query_key(query: GroupByQuery) -> QueryKey:
    """Semantic identity of a query (levels, predicates, aggregate)."""
    return (
        query.groupby.levels,
        frozenset(query.predicates),
        query.aggregate.value,
    )


def coalesce(
    submissions: Iterable[Tuple[object, GroupByQuery]],
) -> Tuple[List[GroupByQuery], Dict[QueryKey, list]]:
    """Deduplicate ``(owner, query)`` submissions by semantic identity.

    Returns the distinct queries — the first submission of each is its
    canonical instance, the one the optimizer sees — and, per key, every
    ``(owner, query)`` pair that asked it, both in submission order, so
    coalescing is deterministic.  Fan-out walks the map after execution.
    """
    distinct: List[GroupByQuery] = []
    members: Dict[QueryKey, list] = {}
    for owner, query in submissions:
        key = query_key(query)
        if key not in members:
            members[key] = []
            distinct.append(query)
        members[key].append((owner, query))
    return distinct, members


@dataclass
class SessionReport:
    """The outcome of one session run."""

    execution: ExecutionReport
    #: Results for every *submitted* query (duplicates included), by qid.
    results: Dict[int, QueryResult] = field(default_factory=dict)
    n_submitted: int = 0
    n_distinct: int = 0

    @property
    def n_duplicates_eliminated(self) -> int:
        """Submitted minus distinct query count."""
        return self.n_submitted - self.n_distinct

    def result_for(self, query: GroupByQuery) -> QueryResult:
        """The result of one submitted query, by its qid."""
        return self.results[query.qid]

    def summary(self) -> str:
        """One-line summary for logs and console output."""
        return (
            f"session: {self.n_submitted} submitted, "
            f"{self.n_distinct} distinct "
            f"({self.n_duplicates_eliminated} duplicate(s) eliminated); "
            + self.execution.summary()
        )


class QuerySession:
    """Collects queries (directly or via MDX) and runs them as one batch."""

    def __init__(self, db: Database, algorithm: str = "gg"):
        self.db = db
        self.algorithm = algorithm
        self._submitted: List[GroupByQuery] = []

    # -- collecting -----------------------------------------------------------

    def add_queries(self, queries: Sequence[GroupByQuery]) -> "QuerySession":
        """Queue queries for the next run (validated immediately)."""
        for query in queries:
            query.validate(self.db.schema)
            self._submitted.append(query)
        return self

    def add_mdx(self, text: str, label_prefix: Optional[str] = None) -> "QuerySession":
        """Translate an MDX expression and queue its component queries."""
        from ..mdx import translate_mdx

        prefix = label_prefix or f"mdx{len(self._submitted)}"
        self.add_queries(
            translate_mdx(self.db.schema, text, prefix, tracer=self.db.tracer)
        )
        return self

    @property
    def n_pending(self) -> int:
        """Number of queries queued in the session."""
        return len(self._submitted)

    def clear(self) -> None:
        """Drop all pending queries."""
        self._submitted.clear()

    # -- running --------------------------------------------------------------

    def run(self, cold: bool = True) -> SessionReport:
        """Deduplicate, answer the distinct set as one batch, and fan
        results back to every submission.  The pending set is cleared, unless
        a class was lost to a fault: that raises the typed
        :class:`~repro.faults.PartialResultError` with every query still
        queued, so the session can simply be run again."""
        if not self._submitted:
            raise ValueError("the session has no queries to run")
        distinct, members = coalesce((None, q) for q in self._submitted)
        with self.db.tracer.span(
            "session.run",
            algorithm=self.algorithm,
            n_submitted=len(self._submitted),
            n_distinct=len(distinct),
        ):
            execution = self.db.run_queries(distinct, self.algorithm, cold=cold)
        report = SessionReport(
            execution=execution,
            n_submitted=len(self._submitted),
            n_distinct=len(distinct),
        )
        for pairs in members.values():
            result = execution.result_for(pairs[0][1])
            for _owner, twin in pairs:
                # Each fan-out gets its own groups dict: results are treated
                # as owned values, never shared mutable state.
                report.results[twin.qid] = QueryResult(
                    query=twin, groups=dict(result.groups)
                )
        self.clear()
        return report
