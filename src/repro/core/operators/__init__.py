"""Query evaluation operators, including the paper's three shared star joins.

* :class:`SharedScanStarJoin` — Sections 3.1 and 3.3 (one scan serving
  hash members, bitmap-filtered index members, and DAG derive steps).
* :class:`IndexStarJoin` / :class:`SharedIndexStarJoin` — Section 3.2.
"""

from .aggregate import HashAggregator
from .hash_join import SharedScanStarJoin
from .index_join import (
    IndexStarJoin,
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
    "IndexStarJoin",
    "MissingIndexError",
    "QueryPipeline",
    "QueryResult",
    "RollupCache",
    "SharedIndexStarJoin",
    "SharedScanStarJoin",
    "query_result_bitmap",
    "usable_index",
]
