"""Calibration observations: estimated unit vectors vs recorded actuals.

One :class:`Observation` pairs, for a single executed plan class,

* ``est_units`` — how many of each accountable unit (sequential page
  reads, random page reads, hash probes, ...) the cost model *predicted*
  the class would charge, and
* ``actual_units`` / ``actual_ms`` — the counters the execution really
  charged (the per-class :class:`~repro.storage.iostats.IOStats` delta the
  executor attaches to every
  :class:`~repro.core.executor.ClassExecution`, next to its
  :class:`~repro.core.operators.results.OperatorActuals` ledger) and the
  simulated milliseconds they priced out to under the rates in force when
  the class ran.

Estimated class cost is **exactly linear** in the rates (see the linearity
note in :mod:`repro.core.optimizer.cost`), so the per-unit predictions are
extracted without touching the model's internals: cost the class once per
rate field against a *basis* :class:`~repro.storage.iostats.CostRates`
(that field 1.0, everything else 0.0) and read the cost off as the unit
count.  :func:`basis_models` builds those models; :func:`estimated_units`
does the extraction and sanity-checks that the basis decomposition re-prices
to the class's own ``est_cost_ms`` under the true rates.
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
    from ..engine.database import Database

#: Every rate field of :class:`CostRates`, in declaration order — the
#: coordinate system of all unit vectors in this package.
RATE_FIELDS: Tuple[str, ...] = tuple(f.name for f in fields(CostRates))

#: rate field -> the :class:`~repro.storage.iostats.IOStats` counter it
#: prices.  ``buffer_hits`` has no rate and appears on neither side.
COUNTER_FOR_RATE: Dict[str, str] = {
    "seq_page_read_ms": "seq_page_reads",
    "rand_page_read_ms": "rand_page_reads",
    "page_write_ms": "page_writes",
    "hash_build_ms": "hash_builds",
    "hash_probe_ms": "hash_probes",
    "tuple_copy_ms": "tuple_copies",
    "agg_update_ms": "agg_updates",
    "bitmap_word_ms": "bitmap_word_ops",
    "bitmap_test_ms": "bitmap_tests",
    "index_lookup_ms": "index_lookups",
    "predicate_eval_ms": "predicate_evals",
}

#: Relative tolerance for the basis-decomposition sanity check: the unit
#: vector re-priced at the true rates must reproduce the class's own
#: estimate (linearity would be broken otherwise).
_DECOMPOSITION_RTOL = 1e-6


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


def basis_models(db: "Database") -> List[CostModel]:
    """One :class:`CostModel` per rate field, priced at the unit basis
    (that field 1.0, all others 0.0), aligned with :data:`RATE_FIELDS`."""
    return [
        CostModel.for_database(
            db, CostRates(**{f: (1.0 if f == k else 0.0) for f in RATE_FIELDS})
        )
        for k in RATE_FIELDS
    ]


def estimated_units(
    models: List[CostModel],
    plan_class: "PlanClass",
    check_rates: Optional[CostRates] = None,
) -> Optional[Tuple[float, ...]]:
    """The model's per-unit predictions for one class, via the basis trick.

    When ``check_rates`` (the rates the class was planned under) is given,
    returns ``None`` if the basis decomposition does not re-price to the
    class's own ``est_cost_ms`` — a non-linear costing path.  None exist
    today, but a silent mismatch would poison the fit, so it is checked
    per class rather than assumed.
    """
    units = tuple(
        model.class_cost_given(
            model.catalog.get(plan_class.source),
            plan_class.queries,
            plan_class.methods,
        )
        for model in models
    )
    if check_rates is not None:
        repriced = sum(
            u * getattr(check_rates, f) for u, f in zip(units, RATE_FIELDS)
        )
        est = plan_class.est_cost_ms
        if abs(repriced - est) > _DECOMPOSITION_RTOL * max(abs(est), 1.0):
            return None
    return units


def observation_from_execution(
    models: List[CostModel], execution: "ClassExecution"
) -> Optional[Observation]:
    """Build the observation of one measured class execution.

    Classes containing a :attr:`~repro.core.optimizer.plans.JoinMethod.DERIVE`
    member are skipped: a derived query's cost is attributed to the
    intermediate built by another pipeline of the same class, so its unit
    decomposition is not independently measurable.
    """
    plan_class = execution.plan_class
    if any(p.method is JoinMethod.DERIVE for p in plan_class.plans):
        return None
    units = estimated_units(models, plan_class, check_rates=execution.sim.rates)
    if units is None:
        return None
    sim = execution.sim
    actual = tuple(
        float(getattr(sim, COUNTER_FOR_RATE[f])) for f in RATE_FIELDS
    )
    return Observation(
        key=class_key(plan_class),
        est_units=units,
        actual_units=actual,
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

    def add_execution(
        self, models: List[CostModel], execution: "ClassExecution"
    ) -> None:
        self.add(observation_from_execution(models, execution))

    def observations(self) -> List[Observation]:
        """All observations in canonical (key-sorted) order."""
        return [self._by_key[k] for k in sorted(self._by_key)]

    def __len__(self) -> int:
        return len(self._by_key)

    def __iter__(self) -> Iterator[Observation]:
        return iter(self.observations())
