"""Self-calibrating cost model: fit :class:`~repro.storage.iostats.CostRates`
from recorded actuals.

The calibration sweep (:mod:`repro.calibrate.sweep`) measures how faithfully
the Section 5.1 cost model *ranks* plans; the rest of this package closes the
loop.  A sweep of Tests 1-7 under every registry algorithm yields, per
executed plan class, an **estimated unit vector** (how many of each
accountable unit — sequential pages, random pages, hash probes, ... — the
model predicted) and the **recorded simulated cost** the executor actually
charged.  Estimated class cost is *exactly linear* in the rates, so a
deterministic weighted ridge least-squares fit
(:func:`~repro.calibrate.fitter.fit_rates`) regresses rate multipliers that
align the model's predictions with the ledger, and the result is persisted
as a versioned JSON :class:`~repro.calibrate.profile.CalibrationProfile`
that :meth:`Database.apply_profile <repro.engine.database.Database.apply_profile>`
and every CLI subcommand (``--profile FILE``) can load.

Entry points:

* :func:`~repro.calibrate.sweep.run_calibration` — the sweep alone: per-class
  Q-error and every misranking (``repro calibrate``).
* :func:`~repro.calibrate.runner.fit_database` — the whole loop: before
  sweep, iterated fit/replan/re-collect, after sweep, profile + report.
* ``repro calibrate --fit [--profile FILE] [--report]`` — the CLI face.
"""

from .fitter import (
    DEFAULT_BOUNDS,
    DEFAULT_ITERATIONS,
    DEFAULT_RIDGE,
    FIT_FIELDS,
    FitResult,
    fit_rates,
)
from .observations import (
    COUNTER_FOR_RATE,
    RATE_FIELDS,
    Observation,
    ObservationSet,
    basis_models,
    estimated_units,
    observation_from_execution,
)
from .profile import PROFILE_VERSION, CalibrationProfile
from .runner import CalibrationOutcome, fit_database
from .sweep import (
    CalibrationReport,
    CalibrationRow,
    Misranking,
    calibration_algorithms,
    find_misrankings,
    run_calibration,
)

__all__ = [
    "COUNTER_FOR_RATE",
    "DEFAULT_BOUNDS",
    "DEFAULT_ITERATIONS",
    "DEFAULT_RIDGE",
    "FIT_FIELDS",
    "PROFILE_VERSION",
    "RATE_FIELDS",
    "CalibrationOutcome",
    "CalibrationProfile",
    "CalibrationReport",
    "CalibrationRow",
    "FitResult",
    "Misranking",
    "Observation",
    "ObservationSet",
    "basis_models",
    "calibration_algorithms",
    "estimated_units",
    "find_misrankings",
    "fit_database",
    "fit_rates",
    "observation_from_execution",
    "run_calibration",
]
