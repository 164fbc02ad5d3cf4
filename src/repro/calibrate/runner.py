"""The calibration loop: sweep, fit, replan, re-collect, report.

:func:`fit_database` is the engine behind ``repro calibrate --fit``:

1. **Before sweep** — run the calibration workload (Tests 1-7 x the
   optimizer registry by default) under the database's current rates,
   producing the baseline :class:`~repro.calibrate.sweep.CalibrationReport`
   and the initial :class:`~repro.calibrate.observations.ObservationSet`.
2. **Fit / replan / re-collect** — for each outer iteration, fit the rates
   on everything observed so far, apply them to the database
   (:meth:`~repro.engine.database.Database.set_rates`), and re-sweep.
   Plan choices depend on the rates, so plans that only become attractive
   under fitted rates surface new classes whose observations feed the next
   fit; the last sweep doubles as the **after** report.
3. **Profile** — package the final rates, multipliers, and both sweep
   summaries into a :class:`~repro.calibrate.profile.CalibrationProfile`.

Everything is deterministic: sweeps execute cold on the simulated cost
clock, observations are canonically ordered, and the solver is direct — so
the same database yields bit-identical profiles run after run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from ..bench.reporting import format_table
from ..core.optimizer.cost import CostModel
from ..workload.paper_queries import ALL_PAPER_TESTS
from .fitter import (
    DEFAULT_BOUNDS,
    DEFAULT_ITERATIONS,
    DEFAULT_RIDGE,
    FIT_FIELDS,
    FitResult,
    fit_rates,
)
from .observations import RATE_FIELDS, ObservationSet
from .profile import CalibrationProfile
from .sweep import CalibrationReport, calibration_algorithms, run_calibration

if TYPE_CHECKING:  # pragma: no cover
    from ..engine.database import Database


@dataclass
class CalibrationOutcome:
    """Everything ``repro calibrate --fit`` produced."""

    profile: CalibrationProfile
    fit: FitResult
    before: CalibrationReport
    after: CalibrationReport

    def render_summary(self) -> str:
        """The compact fit outcome: rates table + headline deltas."""
        rows = []
        base_rates, rates = self.fit.base_rates.as_dict(), self.fit.rates.as_dict()
        for name in RATE_FIELDS:
            base, fitted = base_rates[name], rates[name]
            mult = self.fit.multipliers.get(name, 1.0)
            flag = "fitted" if name in self.fit.fields else "pinned"
            rows.append(
                (name, f"{base:g}", f"{fitted:g}", f"{mult:.4f}", flag)
            )
        blocks = [
            format_table(
                ["rate", "base ms", "fitted ms", "multiplier", ""],
                rows,
                title=(
                    f"Fitted cost rates "
                    f"({self.fit.n_observations} class observation(s), "
                    f"ridge {self.fit.ridge:g}, "
                    f"bounds [{self.fit.bounds[0]:g}, {self.fit.bounds[1]:g}])"
                ),
            ),
            self._headline(),
        ]
        return "\n\n".join(blocks)

    def _headline(self) -> str:
        b, a = self.before.summary(), self.after.summary()
        lines = [
            "Tests 1-7 sweep, base rates -> fitted rates:",
            f"  misrankings   {b['misrankings']} -> {a['misrankings']}",
            f"  q-error p50   {b['q_error_p50']} -> {a['q_error_p50']}",
            f"  q-error p95   {b['q_error_p95']} -> {a['q_error_p95']}",
            f"  q-error max   {b['q_error_max']} -> {a['q_error_max']}",
            (
                f"  fit residual  {self.fit.residual_before:.4f} -> "
                f"{self.fit.residual_after:.4f} (weighted rms, observed "
                f"classes)"
            ),
        ]
        return "\n".join(lines)

    def render_report(self) -> str:
        """The full before/after comparison (``--report``): summary, the
        per-algorithm quality table, and every misranking either sweep
        found, with the fit's explanation of what changed."""
        blocks = [self.render_summary()]
        before_algos = self.before.algorithm_summary()
        after_algos = self.after.algorithm_summary()
        rows = []
        for algo in sorted(set(before_algos) | set(after_algos)):
            b = before_algos.get(algo, {})
            a = after_algos.get(algo, {})
            rows.append(
                (
                    algo,
                    _pair(b, a, "q_error_p50"),
                    _pair(b, a, "q_error_p95"),
                    _pair(b, a, "misrankings"),
                )
            )
        blocks.append(
            format_table(
                ["algorithm", "q-error p50", "q-error p95", "misrankings"],
                rows,
                title="Per-algorithm plan quality (base -> fitted)",
            )
        )
        for title, report in (
            ("base rates", self.before),
            ("fitted rates", self.after),
        ):
            if report.misrankings:
                lines = [f"Misrankings under {title}:"]
                for miss in report.misrankings:
                    lines.append(
                        f"  {miss.test}: {miss.cheap_est.algorithm} "
                        f"(est {miss.cheap_est.est_ms:.1f}, "
                        f"sim {miss.cheap_est.sim_ms:.1f}) ranked below "
                        f"{miss.cheap_actual.algorithm} "
                        f"(est {miss.cheap_actual.est_ms:.1f}, "
                        f"sim {miss.cheap_actual.sim_ms:.1f})"
                    )
                blocks.append("\n".join(lines))
            else:
                blocks.append(
                    f"Misrankings under {title}: none — the model ranks "
                    f"every plan pair the way execution does"
                )
        return "\n\n".join(blocks)


def _pair(before: dict, after: dict, key: str) -> str:
    b, a = before.get(key), after.get(key)
    return f"{'-' if b is None else b} -> {'-' if a is None else a}"


def fit_database(
    db: "Database",
    tests: Optional[Sequence[str]] = None,
    algorithms: Optional[Sequence[str]] = None,
    fields: Sequence[str] = FIT_FIELDS,
    ridge: float = DEFAULT_RIDGE,
    bounds: Tuple[float, float] = DEFAULT_BOUNDS,
    iterations: int = DEFAULT_ITERATIONS,
    label: str = "paper",
    scale: Optional[float] = None,
) -> CalibrationOutcome:
    """Fit calibration rates on ``db``'s workload (see module docstring).

    The database is left running under the **fitted** rates (callers that
    want the base rates back can ``db.set_rates(outcome.fit.base_rates)``);
    its :attr:`~repro.engine.database.Database.calibration_profile` is set
    to the produced profile so downstream fingerprints carry provenance.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    if algorithms is None:
        algorithms = calibration_algorithms()
    test_names = tuple(tests) if tests is not None else tuple(ALL_PAPER_TESTS)
    base_rates = db.stats.rates
    model = CostModel.for_database(db)
    observations = ObservationSet()

    def collect(test: str, algorithm: str, execution) -> None:
        observations.add_execution(model, execution)

    before = run_calibration(
        db, tests=test_names, algorithms=algorithms, on_execution=collect
    )
    after = before
    for _ in range(iterations):
        fit = fit_rates(
            observations.observations(), base_rates,
            fields=fields, ridge=ridge, bounds=bounds,
        )
        db.set_rates(fit.rates)
        after = run_calibration(
            db, tests=test_names, algorithms=algorithms, on_execution=collect
        )
    profile = CalibrationProfile(
        rates=fit.rates,
        base_rates=base_rates,
        multipliers=fit.multipliers,
        label=label,
        created_at=time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        scale=scale,
        tests=test_names,
        algorithms=tuple(algorithms),
        fit_fields=fit.fields,
        ridge=ridge,
        bounds=bounds,
        iterations=iterations,
        n_observations=fit.n_observations,
        before=before.summary(),
        after=after.summary(),
    )
    db.calibration_profile = profile
    return CalibrationOutcome(
        profile=profile, fit=fit, before=before, after=after
    )
