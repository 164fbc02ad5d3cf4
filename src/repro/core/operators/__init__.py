"""Query evaluation operators, including the paper's three shared star
joins as one :class:`StarJoin` over a row source:

* :class:`ScanRows` — Sections 3.1 and 3.3 (one scan serving hash members,
  bitmap-filtered index members, and DAG derive steps);
* :class:`ProbeRows` — Section 3.2 (the shared index join; its one-member
  case is the single-query index plan).
"""

from .aggregate import HashAggregator
from .pipeline import ExecContext, QueryPipeline
from .results import GroupKey, QueryResult
from .star_join import (
    OPERATOR_LABELS,
    MissingIndexError,
    ProbeRows,
    ScanRows,
    StarJoin,
    query_result_bitmap,
    usable_index,
)

__all__ = [
    "ExecContext",
    "GroupKey",
    "HashAggregator",
    "MissingIndexError",
    "OPERATOR_LABELS",
    "ProbeRows",
    "QueryPipeline",
    "QueryResult",
    "ScanRows",
    "StarJoin",
    "query_result_bitmap",
    "usable_index",
]
