"""repro — a reproduction of *Simultaneous Optimization and Evaluation of
Multiple Dimensional Queries* (Zhao, Deshpande, Naughton, Shukla; SIGMOD
1998).

The package implements, from scratch:

* a paged ROLAP storage engine with a simulated I/O + CPU cost clock
  (:mod:`repro.storage`),
* bitmap and position-list star-join indexes (:mod:`repro.index`),
* star schemas, hierarchies, and the group-by lattice (:mod:`repro.schema`),
* the paper's three shared star-join operators and three multi-query
  optimization algorithms — TPLO, ETPLG, GG — plus an exact optimal
  planner and a naive baseline (:mod:`repro.core`),
* an MDX-subset front end that splits one MDX expression into its component
  group-by queries (:mod:`repro.mdx`),
* the paper's evaluation workload and a benchmark harness regenerating every
  table and figure (:mod:`repro.workload`, :mod:`repro.bench`).

Quickstart::

    from repro.workload import build_paper_database, paper_queries

    db = build_paper_database(scale=0.01)
    queries = paper_queries(db.schema)
    report = db.run_queries([queries[1], queries[2], queries[3]], "gg")
    print(report.summary())
"""

from .check import (
    CorrectnessError,
    PlanCoverageError,
    PlanValidationError,
    reference_answer,
    validate_global_plan,
)
from .core import (
    ExecutionReport,
    GlobalPlan,
    JoinMethod,
    QueryResult,
    SharedIndexStarJoin,
    SharedScanStarJoin,
    make_optimizer,
)
from .engine import Database, evaluate_reference, to_sql
from .faults import (
    FaultPlan,
    InjectedFault,
    InjectionPoint,
    PartialResultError,
    parse_fault_plan,
)
from .obs import MetricsRegistry, Span, Tracer, default_registry
from .schema import (
    Aggregate,
    DimPredicate,
    Dimension,
    GroupBy,
    GroupByQuery,
    StarSchema,
)
from .storage import CostRates, IOStats

__version__ = "1.0.0"

__all__ = [
    "Aggregate",
    "CorrectnessError",
    "CostRates",
    "Database",
    "PlanCoverageError",
    "PlanValidationError",
    "reference_answer",
    "validate_global_plan",
    "DimPredicate",
    "Dimension",
    "ExecutionReport",
    "FaultPlan",
    "GlobalPlan",
    "InjectedFault",
    "InjectionPoint",
    "PartialResultError",
    "parse_fault_plan",
    "GroupBy",
    "GroupByQuery",
    "IOStats",
    "JoinMethod",
    "MetricsRegistry",
    "QueryResult",
    "Span",
    "Tracer",
    "default_registry",
    "SharedIndexStarJoin",
    "SharedScanStarJoin",
    "StarSchema",
    "evaluate_reference",
    "make_optimizer",
    "to_sql",
    "__version__",
]
