"""Benchmark harness: regenerates every table and figure of the paper."""

from .harness import (
    AlgorithmRow,
    DEFAULT_ALGORITHMS,
    ForcedRun,
    SharingRow,
    run_algorithm_comparison,
    run_figure,
    run_forced_class,
    run_separately,
    run_sharing_sweep,
)
from .history import (
    DEFAULT_THRESHOLDS,
    Regression,
    RegressionReport,
    RunRecord,
    compare_records,
    database_fingerprint,
    default_record_path,
    record_run,
)
from .reporting import format_table

__all__ = [
    "AlgorithmRow",
    "DEFAULT_ALGORITHMS",
    "DEFAULT_THRESHOLDS",
    "ForcedRun",
    "Regression",
    "RegressionReport",
    "RunRecord",
    "SharingRow",
    "compare_records",
    "database_fingerprint",
    "default_record_path",
    "record_run",
    "format_table",
    "run_algorithm_comparison",
    "run_figure",
    "run_forced_class",
    "run_separately",
    "run_sharing_sweep",
]
