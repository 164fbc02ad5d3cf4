"""Benchmark harness: regenerates every table and figure of the paper.

Only the harness is re-exported here: :mod:`repro.calibrate` builds on it,
and :mod:`repro.bench.history` (records and their check) builds on the
calibration sweep in turn, so it is imported by its own name.
"""

from .harness import (
    AlgorithmRow,
    DEFAULT_ALGORITHMS,
    SharingRow,
    forced_plan,
    run_algorithm_comparison,
    run_figure,
    run_sharing_sweep,
)
from .reporting import format_table

__all__ = [
    "AlgorithmRow",
    "DEFAULT_ALGORITHMS",
    "SharingRow",
    "forced_plan",
    "format_table",
    "run_algorithm_comparison",
    "run_figure",
    "run_sharing_sweep",
]
