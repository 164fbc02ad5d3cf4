"""The paper's contribution: shared star-join operators, multi-query
optimizers (TPLO / ETPLG / GG), and the plan executor."""

from .executor import (
    ClassExecution,
    ExecutionReport,
    execute_plan,
    run_class_accounted,
)
from .explain import explain_class, explain_plan
from .operators import (
    MissingIndexError,
    QueryResult,
    ProbeRows,
    ScanRows,
    StarJoin,
)
from .optimizer import (
    CostModel,
    GlobalPlan,
    JoinMethod,
    LocalPlan,
    OPTIMIZERS,
    PlanClass,
    make_optimizer,
)

__all__ = [
    "ClassExecution",
    "CostModel",
    "ExecutionReport",
    "GlobalPlan",
    "JoinMethod",
    "LocalPlan",
    "MissingIndexError",
    "OPTIMIZERS",
    "PlanClass",
    "QueryResult",
    "ProbeRows",
    "ScanRows",
    "StarJoin",
    "execute_plan",
    "explain_class",
    "explain_plan",
    "make_optimizer",
    "run_class_accounted",
]
