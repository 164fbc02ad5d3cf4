"""Calibration observations: estimated counts vs recorded actuals.

One :class:`Observation` pairs, for a single executed plan class,

* ``est_units`` — how many of each accountable unit (sequential page
  reads, random page reads, hash probes, ...) the cost model *predicted*
  the class would charge: the class's own
  :class:`~repro.storage.iostats.Counts`
  (:meth:`~repro.core.optimizer.cost.CostModel.class_units`), and
* ``actual_units`` / ``actual_ms`` — the counters the execution really
  charged (the per-class :class:`~repro.storage.iostats.IOStats` delta the
  executor attaches to every
  :class:`~repro.core.executor.ClassExecution`, next to its
  :class:`~repro.core.operators.results.OperatorActuals` ledger) and the
  simulated milliseconds they priced out to under the rates in force when
  the class ran.

Both vectors are in :class:`~repro.storage.iostats.CostRates`' field order
(:data:`RATE_FIELDS`), the order :class:`Counts` keeps.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

from ..core.optimizer.cost import CostModel
from ..core.optimizer.plans import JoinMethod
from ..storage.iostats import CostRates

if TYPE_CHECKING:  # pragma: no cover
    from ..core.executor import ClassExecution
    from ..core.optimizer.plans import PlanClass

#: Every rate field of :class:`CostRates`, in declaration order — the
#: coordinate system of all unit vectors in this package.
RATE_FIELDS: Tuple[str, ...] = tuple(f.name for f in fields(CostRates))


@dataclass(frozen=True)
class Observation:
    """One plan class's estimated unit vector vs its recorded actuals.

    ``key`` canonically identifies the class *shape* — source table, join
    methods, and member qids — so re-running the same class (another
    algorithm converging on it, a later fit iteration re-selecting it)
    deduplicates instead of double-weighting the fit.
    """

    key: str
    #: Estimated units per :data:`RATE_FIELDS` entry.
    est_units: Tuple[float, ...]
    #: Recorded counters per :data:`RATE_FIELDS` entry.
    actual_units: Tuple[float, ...]
    #: Simulated ms the recorded counters priced to at recording time.
    actual_ms: float


def class_key(plan_class: "PlanClass") -> str:
    """Canonical identity of a class shape (source, methods, sorted qids)."""
    qids = ",".join(str(q) for q in sorted(p.query.qid for p in plan_class.plans))
    return f"{plan_class.source}|{plan_class.method_signature}|{qids}"


def observation_from_execution(
    model: CostModel, execution: "ClassExecution"
) -> Optional[Observation]:
    """Build the observation of one measured class execution, its
    estimate counted by ``model`` (any rates: counts do not depend on them).

    Classes containing a :attr:`~repro.core.optimizer.plans.JoinMethod.DERIVE`
    member are skipped: a derived query's cost is attributed to the
    intermediate built by another pipeline of the same class, so its unit
    decomposition is not independently measurable.
    """
    plan_class = execution.plan_class
    if any(p.method is JoinMethod.DERIVE for p in plan_class.plans):
        return None
    sim = execution.sim
    return Observation(
        key=class_key(plan_class),
        est_units=tuple(map(float, model.class_units(plan_class))),
        actual_units=tuple(map(float, sim.counts())),
        actual_ms=sim.total_ms,
    )


class ObservationSet:
    """Deduplicating accumulator of observations, iterated canonically.

    Insertion order never matters: :meth:`observations` sorts by key, so
    the fit's design matrix — and therefore the fitted rates — is identical
    no matter how sweeps interleave (floating-point summation inside the
    least-squares solve is order-sensitive; canonical order removes the
    sensitivity at the source).
    """

    def __init__(self) -> None:
        self._by_key: Dict[str, Observation] = {}

    def add(self, obs: Optional[Observation]) -> None:
        """Record an observation; ``None`` and repeated keys are no-ops."""
        if obs is not None and obs.key not in self._by_key:
            self._by_key[obs.key] = obs

    def add_execution(self, model: CostModel, execution: "ClassExecution") -> None:
        self.add(observation_from_execution(model, execution))

    def observations(self) -> List[Observation]:
        """All observations in canonical (key-sorted) order."""
        return [self._by_key[k] for k in sorted(self._by_key)]

    def __len__(self) -> int:
        return len(self._by_key)

    def __iter__(self) -> Iterator[Observation]:
        return iter(self.observations())
