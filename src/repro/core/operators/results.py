"""Query results — aggregated groups keyed by member-id tuples — and the
actuals a shared operator records while producing them."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ...schema.query import Aggregate, GroupByQuery
from ...schema.star import StarSchema

GroupKey = Tuple[int, ...]  # one member id per dimension (ALL dims carry 0)

DEFAULT_REL_TOL = 1e-9  #: the answer rule's tolerance (DESIGN.md §6.1)


def values_differ(want: float, got: float, rel_tol: float) -> bool:
    """The one answer rule: two aggregate values are further apart than
    ``rel_tol`` of the larger magnitude (floored at 1)."""
    return abs(want - got) > rel_tol * max(abs(want), abs(got), 1.0)


@dataclass
class QueryResult:
    """The answer to one group-by query.

    ``groups`` maps a member-id tuple (one id per schema dimension, at the
    query's target level; dimensions aggregated to ALL carry id 0) to the
    aggregated measure value.
    """

    query: GroupByQuery
    groups: Dict[GroupKey, float]
    #: For AVG queries only: the algebraic (sum, count) partial state behind
    #: each group, carried so row-disjoint partial results (data shards)
    #: merge exactly instead of wrongly averaging averages.  ``None`` for
    #: distributive aggregates.  Deliberately ignored by
    #: :meth:`approx_equals` — equality is about the final answer.
    avg_state: Optional[Dict[GroupKey, Tuple[float, int]]] = None

    @property
    def n_groups(self) -> int:
        """Number of result groups."""
        return len(self.groups)

    def value(self, key: GroupKey) -> float:
        """The aggregated value of one group key."""
        return self.groups[key]

    def total(self) -> float:
        """Sum of all group values (useful for SUM/COUNT sanity checks)."""
        return sum(self.groups.values())

    def to_named_rows(self, schema: StarSchema) -> List[Tuple[Tuple[str, ...], float]]:
        """Rows with member names instead of ids, sorted for display.

        Dimensions aggregated to ALL are omitted from the name tuple.
        """
        levels = self.query.groupby.levels
        rows: List[Tuple[Tuple[str, ...], float]] = []
        for key, value in self.groups.items():
            names = tuple(
                dim.member_name(level, member)
                for dim, level, member in zip(schema.dimensions, levels, key)
                if level != dim.all_level
            )
            rows.append((names, value))
        rows.sort(key=lambda item: item[0])
        return rows

    def detached(self, query: Optional[GroupByQuery] = None) -> "QueryResult":
        """A copy the caller owns outright, optionally re-keyed to ``query``
        (a semantic twin with a different qid).

        Copying the two dicts is a full copy: their keys are tuples of ints
        and their values floats or ``(float, int)`` tuples, all immutable.
        """
        return QueryResult(
            query=query if query is not None else self.query,
            groups=dict(self.groups),
            avg_state=None if self.avg_state is None else dict(self.avg_state),
        )

    def approx_equals(
        self, other: "QueryResult", rel_tol: float = DEFAULT_REL_TOL
    ) -> bool:
        """Same groups with values no :func:`values_differ` tells apart
        (order-insensitive)."""
        theirs = other.groups
        return self.groups.keys() == theirs.keys() and not any(
            values_differ(value, theirs[key], rel_tol)
            for key, value in self.groups.items()
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"QueryResult({self.query.display_name()}, {self.n_groups} groups)"


#: How each distributive aggregate combines two partial group values.
#: AVG is absent deliberately: it is *algebraic* and merges through
#: ``QueryResult.avg_state`` (sum the sums, sum the counts, divide once).
_MERGERS = {
    Aggregate.SUM: lambda a, b: a + b,
    Aggregate.COUNT: lambda a, b: a + b,
    Aggregate.MIN: min,
    Aggregate.MAX: max,
}


def _merge_avg(
    query: GroupByQuery, position: int, partials: List[List[QueryResult]]
) -> QueryResult:
    """Merge one AVG query's partials via their (sum, count) state."""
    state: Dict[GroupKey, Tuple[float, int]] = {}
    for part_results in partials:
        partial = part_results[position]
        if partial.avg_state is None:  # pragma: no cover - executor invariant
            raise ValueError(
                f"AVG partial for {partial.query.display_name()} carries no "
                f"avg_state; cannot merge partitions exactly"
            )
        for key, (part_sum, part_count) in partial.avg_state.items():
            if key in state:
                acc_sum, acc_count = state[key]
                state[key] = (acc_sum + part_sum, acc_count + part_count)
            else:
                state[key] = (part_sum, part_count)
    groups = {key: s / c for key, (s, c) in state.items()}
    return QueryResult(query=query, groups=groups, avg_state=state)


def merge_partial_results(
    queries: Sequence[GroupByQuery], partials: List[List[QueryResult]]
) -> List[QueryResult]:
    """Combine partial results over row-disjoint data partitions (shards)
    into final answers, per the Data Cube recipe (Gray et al.).

    ``partials`` holds each partition's result list in ``queries`` order.
    Distributive aggregates merge group values with their combiner; AVG
    merges its (sum, count) pairs and divides once at the end, so the
    merged average is exact rather than an average of averages.  Iterating
    partitions in order keeps group insertion order deterministic.
    """
    merged: List[QueryResult] = []
    for position, query in enumerate(queries):
        if query.aggregate is Aggregate.AVG:
            merged.append(_merge_avg(query, position, partials))
            continue
        combine = _MERGERS[query.aggregate]
        groups: Dict[GroupKey, float] = {}
        for part_results in partials:
            for key, value in part_results[position].groups.items():
                if key in groups:
                    groups[key] = combine(groups[key], value)
                else:
                    groups[key] = value
        merged.append(QueryResult(query=query, groups=groups))
    return merged


def q_error(est: float, actual: float) -> float:
    """``max(est/actual, actual/est)`` — 1.0 is a perfect estimate.

    Degenerate inputs (either side non-positive) return ``inf`` unless both
    are ~zero, which counts as perfect agreement.
    """
    if est <= 0.0 and actual <= 0.0:
        return 1.0
    if est <= 0.0 or actual <= 0.0:
        return float("inf")
    return max(est / actual, actual / est)


@dataclass
class OperatorActuals:
    """What one shared-operator execution really did.  Every shared
    operator fills one in while running; the executor attaches it to the
    class's :class:`~repro.core.executor.ClassExecution` and to the
    ``operator.*`` span's attributes.

    All counters are in tuples/pages, keyed by ``query.qid`` where
    per-query.  ``tuples_routed`` is the count *delivered* to a query's
    pipeline after the "Filter tuples" routing step; ``tuples_tested`` the
    count tested against the query's result bitmap (shared-index and
    hybrid operators only).
    """

    operator: str
    source: str = ""
    rows_scanned: int = 0
    pages_scanned: int = 0
    #: Rows fetched through the union-bitmap probe (shared index join).
    probes_issued: int = 0
    #: Popcount of the OR of the per-query result bitmaps.
    union_popcount: int = 0
    #: qid -> popcount of the query's own result bitmap.
    bitmap_popcounts: Dict[int, int] = field(default_factory=dict)
    #: qid -> probed/scanned tuples tested against the query's bitmap.
    tuples_tested: Dict[int, int] = field(default_factory=dict)
    #: qid -> tuples delivered to the query's pipeline by routing.
    tuples_routed: Dict[int, int] = field(default_factory=dict)
    #: qid -> tuples fed into the query's probe/filter/aggregate pipeline.
    rows_in: Dict[int, int] = field(default_factory=dict)
    #: qid -> tuples surviving the query's filters.
    rows_passed: Dict[int, int] = field(default_factory=dict)
    #: qid -> result groups produced.
    n_groups: Dict[int, int] = field(default_factory=dict)
    #: qid -> simulated CPU ms the query's pipeline charged (exact share).
    pipeline_cpu_ms: Dict[int, float] = field(default_factory=dict)

    def record_pipeline(self, qid: int, pipeline, result, rates) -> None:
        """Capture one query pipeline's row counters and CPU share."""
        self.rows_in[qid] = pipeline.rows_in
        self.rows_passed[qid] = pipeline.rows_passed
        self.n_groups[qid] = result.n_groups
        self.pipeline_cpu_ms[qid] = pipeline.actual_cpu_ms(rates)

    def as_dict(self) -> dict:
        """JSON-able dump (per-query dicts keyed by stringified qid)."""
        return {
            "operator": self.operator,
            "source": self.source,
            "rows_scanned": self.rows_scanned,
            "pages_scanned": self.pages_scanned,
            "probes_issued": self.probes_issued,
            "union_popcount": self.union_popcount,
            "bitmap_popcounts": {str(k): v for k, v in self.bitmap_popcounts.items()},
            "tuples_tested": {str(k): v for k, v in self.tuples_tested.items()},
            "tuples_routed": {str(k): v for k, v in self.tuples_routed.items()},
            "rows_in": {str(k): v for k, v in self.rows_in.items()},
            "rows_passed": {str(k): v for k, v in self.rows_passed.items()},
            "n_groups": {str(k): v for k, v in self.n_groups.items()},
            "pipeline_cpu_ms": {
                str(k): round(v, 6) for k, v in self.pipeline_cpu_ms.items()
            },
        }


def merge_actuals(
    partials: Sequence[OperatorActuals], results: Sequence
) -> OperatorActuals:
    """Sum per-partition operator actuals into one class-level ledger.

    Every counter is additive across row-disjoint partitions (rows scanned,
    probes issued, per-query pipeline counts and CPU charge), so
    partition-order summation is exact.  ``n_groups`` is the exception — a
    group present on two partitions is still one group — so it is read off
    the merged ``results`` instead.  A DAG class's *intermediate* has no
    merged result (only its members do), so its ``n_groups`` entry is not
    a merged quantity and is omitted.
    """
    first = partials[0]
    merged = OperatorActuals(operator=first.operator, source=first.source)
    for part in partials:
        merged.rows_scanned += part.rows_scanned
        merged.pages_scanned += part.pages_scanned
        merged.probes_issued += part.probes_issued
        merged.union_popcount += part.union_popcount
        for attr in (
            "bitmap_popcounts",
            "tuples_tested",
            "tuples_routed",
            "rows_in",
            "rows_passed",
            "pipeline_cpu_ms",
        ):
            target = getattr(merged, attr)
            for qid, value in getattr(part, attr).items():
                target[qid] = target.get(qid, 0) + value
    for result in results:
        merged.n_groups[result.query.qid] = result.n_groups
    return merged
