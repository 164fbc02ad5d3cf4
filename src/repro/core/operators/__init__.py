"""Query evaluation operators, including the paper's three shared star joins.

* :class:`SharedScanStarJoin` — Sections 3.1 and 3.3 (one scan serving
  hash members, bitmap-filtered index members, and DAG derive steps).
* :class:`SharedIndexStarJoin` — Section 3.2 (its one-query case is the
  single-query index plan).
"""

from .aggregate import HashAggregator
from .hash_join import SharedScanStarJoin
from .index_join import (
    MissingIndexError,
    SharedIndexStarJoin,
    query_result_bitmap,
    usable_index,
)
from .pipeline import ExecContext, QueryPipeline, RollupCache
from .results import GroupKey, QueryResult

__all__ = [
    "ExecContext",
    "GroupKey",
    "HashAggregator",
    "MissingIndexError",
    "QueryPipeline",
    "QueryResult",
    "RollupCache",
    "SharedIndexStarJoin",
    "SharedScanStarJoin",
    "query_result_bitmap",
    "usable_index",
]
