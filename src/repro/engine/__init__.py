"""Database facade and warehouse lifecycle: loading, materialization
(including greedy view selection), indexing, statistics,
incremental maintenance, sessions, and optimize + execute."""

from .database import Database
from .result_cache import ResultCache, attach_cache
from .maintenance import MaintenanceError, append_rows
from .persist import load_database, save_database
from .materialize import (
    build_groupby_table,
    compute_groupby,
    pick_materialization_source,
)
from .session import QuerySession, SessionReport, query_key
from .statistics import ColumnStats, TableStats, analyze, analyze_table
from .view_selection import (
    SelectionStep,
    ViewSelection,
    greedy_select_views,
    materialize_selection,
    workload_cost,
)

__all__ = [
    "ColumnStats",
    "Database",
    "MaintenanceError",
    "QuerySession",
    "ResultCache",
    "SelectionStep",
    "SessionReport",
    "TableStats",
    "ViewSelection",
    "analyze",
    "analyze_table",
    "append_rows",
    "attach_cache",
    "build_groupby_table",
    "compute_groupby",
    "greedy_select_views",
    "load_database",
    "materialize_selection",
    "pick_materialization_source",
    "query_key",
    "save_database",
    "workload_cost",
]
