"""Database facade and warehouse lifecycle: loading, materialization
(including greedy view selection), indexing, statistics,
incremental maintenance, sessions, and optimize + execute."""

from .advisor import (
    QueryLog,
    Recommendation,
    apply_recommendation,
    attach_log,
    recommend_views,
)
from .database import Database
from .result_cache import ResultCache, attach_cache
from .maintenance import MaintenanceError, append_rows
from .navigate import NavigationError, drill_down, roll_up, slice_member
from .persist import load_database, save_database
from .materialize import (
    build_groupby_table,
    compute_groupby,
    pick_materialization_source,
)
from .reference import evaluate_reference
from .session import QuerySession, SessionReport, query_key
from .sqlgen import level_column, to_sql
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
    "NavigationError",
    "QueryLog",
    "QuerySession",
    "Recommendation",
    "ResultCache",
    "SelectionStep",
    "SessionReport",
    "TableStats",
    "ViewSelection",
    "analyze",
    "analyze_table",
    "append_rows",
    "apply_recommendation",
    "attach_cache",
    "attach_log",
    "build_groupby_table",
    "compute_groupby",
    "drill_down",
    "evaluate_reference",
    "greedy_select_views",
    "level_column",
    "load_database",
    "materialize_selection",
    "pick_materialization_source",
    "query_key",
    "recommend_views",
    "roll_up",
    "save_database",
    "slice_member",
    "to_sql",
    "workload_cost",
]
