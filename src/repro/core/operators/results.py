"""Query results — aggregated groups keyed by member-id tuples — and the
actuals a shared operator records while producing them."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ...schema.query import GroupByQuery
from ...schema.star import StarSchema

GroupKey = Tuple[int, ...]  # one member id per dimension (ALL dims carry 0)


@dataclass
class QueryResult:
    """The answer to one group-by query.

    ``groups`` maps a member-id tuple (one id per schema dimension, at the
    query's target level; dimensions aggregated to ALL carry id 0) to the
    aggregated measure value — the correctly rounded float of an exact
    rational (DESIGN.md §6.1), so two answers agree only if ``==``.
    """

    query: GroupByQuery
    groups: Dict[GroupKey, float]

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

        Copying the dict is a full copy: its keys are tuples of ints and
        its values floats, all immutable.
        """
        return QueryResult(
            query=query if query is not None else self.query,
            groups=dict(self.groups),
        )

    def approx_equals(self, other: "QueryResult") -> bool:
        """The same groups and values (kept for callers of the old name)."""
        return self.groups == other.groups

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"QueryResult({self.query.display_name()}, {self.n_groups} groups)"


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
    operator fills one in while running, and writes nothing else; the
    executor writes the operator counters from it and attaches it to the
    class's :class:`~repro.core.executor.ClassExecution` and to the
    ``operator.*`` span's attributes.

    Counters are in tuples/pages/operations, keyed by ``query.qid`` where
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
    #: Column batches the shared scan handed out.
    morsels: int = 0
    #: Bitmap ANDs across dimensions while building result bitmaps.
    and_ops: int = 0
    #: Bitmap ORs of the per-query result bitmaps into the probe set.
    or_ops: int = 0
    #: Intermediate group rows fed to derived members' pipelines.
    derive_rows: int = 0
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
        """JSON-able dump, field by field (per-query dicts keyed by
        stringified qid, CPU shares rounded to 6 places)."""
        return {
            name: {
                str(k): round(v, 6) if isinstance(v, float) else v
                for k, v in value.items()
            }
            if isinstance(value, dict)
            else value
            for name, value in vars(self).items()
        }
