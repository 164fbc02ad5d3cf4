"""Multi-query optimizers, by registry name: ``tplo`` (Section 4); ``etplg``,
``gg`` and the bounded ``bgg`` — one greedy loop (Sections 5–6,
:mod:`.greedy`); ``optimal`` — the exact set-partition DP (:mod:`.dp`,
Table 2's "Optimal" column); ``dag`` — sub-aggregate sharing seeded from
GG's classes (:mod:`repro.dag`); and the no-sharing ``naive`` baseline."""

from typing import TYPE_CHECKING, Dict, Type

from .base import Optimizer, build_plan_class
from .cost import ClassCosting, CostModel
from .dp import OptimalOptimizer
from .greedy import BGGOptimizer, ETPLGOptimizer, GGOptimizer, GreedyOptimizer
from .naive import NaiveOptimizer
from .plans import DeriveStep, GlobalPlan, JoinMethod, LocalPlan, PlanClass
from .tplo import TPLOOptimizer

# Imported late so repro.dag can lean on the submodules above (base, cost,
# plans, greedy) without a cycle through this package __init__.
from ...dag.optimizer import DagOptimizer

if TYPE_CHECKING:  # pragma: no cover
    from ...engine.database import Database

OPTIMIZERS: Dict[str, Type[Optimizer]] = {
    "naive": NaiveOptimizer,
    "tplo": TPLOOptimizer,
    "etplg": ETPLGOptimizer,
    "gg": GGOptimizer,
    "bgg": BGGOptimizer,
    "optimal": OptimalOptimizer,
    "dag": DagOptimizer,
}


def make_optimizer(name: str, db: "Database") -> Optimizer:
    """Instantiate an optimizer by its registry name."""
    try:
        cls = OPTIMIZERS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown optimizer {name!r}; choose from {sorted(OPTIMIZERS)}"
        ) from None
    return cls(db)


__all__ = [
    "BGGOptimizer",
    "ClassCosting",
    "CostModel",
    "DagOptimizer",
    "DeriveStep",
    "ETPLGOptimizer",
    "GGOptimizer",
    "GlobalPlan",
    "GreedyOptimizer",
    "JoinMethod",
    "LocalPlan",
    "NaiveOptimizer",
    "OPTIMIZERS",
    "OptimalOptimizer",
    "Optimizer",
    "PlanClass",
    "TPLOOptimizer",
    "build_plan_class",
    "make_optimizer",
]
