"""Deterministic least-squares fitting of :class:`CostRates` coefficients.

The regression aligns the cost model's *estimated* unit vectors with the
ledger of what executions *recorded*.  For observation ``i`` with estimated
units ``e_i`` and recorded counters ``a_i``, the target is the recorded
cost priced at the base rates, ``y_i = a_i . r0``, and the fit solves the
weighted ridge problem over per-field multipliers ``x`` (one per fitted
field, pinned fields fixed at 1):

    min_x  sum_i w_i * (e_i[fit] . (r0[fit] * x)  +  e_i[pin] . r0[pin] - y_i)^2
           + ridge * ||x - 1||^2

with ``w_i = 1 / y_i`` (relative weighting: a 10 ms class and a 10 s class
contribute equally per unit of *relative* error), solved by one
:func:`numpy.linalg.lstsq` on the stacked ``[sqrt(w) M; sqrt(ridge) I]``
system and clipped to ``bounds``.  The formulation matters:

* Regressing the *fixed* target ``y_i`` (rather than minimizing
  ``(e_i - a_i) . r`` homogeneously) keeps the problem anchored — the
  homogeneous form is degenerate, happily driving rates to zero or the
  clip floor because zeroing a rate zeroes its residual.
* The ridge pulls multipliers toward 1 (the hand-set defaults), so fields
  the workload barely exercises stay put instead of absorbing noise.
* Only the fields a calibration sweep genuinely constrains are fitted
  (:data:`FIT_FIELDS`); the rest are pinned and moved to the target side.

Determinism: observations are consumed in canonical key order (see
:class:`~repro.calibrate.observations.ObservationSet`), the solver is a
direct method, and there is no randomness anywhere — the same observation
set yields bit-identical fitted rates regardless of collection order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from ..storage.iostats import CostRates
from .observations import RATE_FIELDS, Observation

#: The coefficients the sweep constrains well: sequential vs random page
#: cost, cpu-per-probe, cpu-per-tuple, and the bitmap word rate.  The
#: remaining fields (page writes, hash builds, index lookups, ...) are
#: either unexercised or perfectly predicted by the model, so fitting them
#: would only let the solver launder quantity-estimation error into them.
FIT_FIELDS: Tuple[str, ...] = (
    "seq_page_read_ms",
    "rand_page_read_ms",
    "hash_probe_ms",
    "tuple_copy_ms",
    "bitmap_word_ms",
)

#: Ridge strength toward multiplier 1.  Chosen where the fit is stable:
#: much smaller and weakly-constrained cpu fields drift to the bounds.
DEFAULT_RIDGE = 0.03

#: Multiplier clip range — a fitted rate may move at most 4x either way
#: from its base value; anything wilder is quantity error, not a rate.
DEFAULT_BOUNDS: Tuple[float, float] = (0.25, 4.0)

#: Outer fit -> replan -> re-collect rounds (see runner.fit_database):
#: plan choices depend on the rates, so classes selected only under fitted
#: rates must feed back into the fit before it settles.
DEFAULT_ITERATIONS = 3


@dataclass(frozen=True)
class FitResult:
    """The outcome of one least-squares fit."""

    #: The fitted rates (pinned fields keep their base values).
    rates: CostRates
    #: The rates the fit started from (and priced the targets at).
    base_rates: CostRates
    #: field -> fitted/base multiplier, for every field (pinned ones at 1).
    multipliers: Dict[str, float]
    #: Fields that were actually fitted (order preserved).
    fields: Tuple[str, ...]
    n_observations: int
    ridge: float
    bounds: Tuple[float, float]
    #: Weighted RMS relative residual before and after the fit — the
    #: aggregate misprediction the multipliers removed.
    residual_before: float
    residual_after: float


def _residual(
    est: np.ndarray, targets: np.ndarray, rates_vec: np.ndarray
) -> float:
    """Root-mean-square relative residual of ``est @ rates`` vs targets."""
    pred = est @ rates_vec
    rel = (pred - targets) / targets
    return float(np.sqrt(np.mean(rel * rel)))


def fit_rates(
    observations: Sequence[Observation],
    base_rates: CostRates,
    fields: Sequence[str] = FIT_FIELDS,
    ridge: float = DEFAULT_RIDGE,
    bounds: Tuple[float, float] = DEFAULT_BOUNDS,
) -> FitResult:
    """Fit rate multipliers from observations (see module docstring).

    Degenerate inputs degrade gracefully: with no (usable) observations, or
    with every requested field priced at zero in ``base_rates``, the result
    is the base rates with all multipliers 1.
    """
    lo, hi = bounds
    if lo <= 0 or hi < lo:
        raise ValueError(f"bounds must satisfy 0 < lo <= hi, got {bounds}")
    unknown = [f for f in fields if f not in RATE_FIELDS]
    if unknown:
        raise ValueError(
            f"unknown rate fields {unknown}; choose from {list(RATE_FIELDS)}"
        )
    r0 = np.array(list(base_rates.as_dict().values()))
    # A zero base rate cannot be scaled by a multiplier; pin it.
    idx = [
        i for i, f in enumerate(RATE_FIELDS) if f in fields and r0[i] > 0.0
    ]
    fitted_fields = tuple(RATE_FIELDS[i] for i in idx)

    ordered = sorted(observations, key=lambda o: o.key)
    est_rows = []
    targets = []
    for obs in ordered:
        y = float(np.dot(np.asarray(obs.actual_units), r0))
        if y <= 0.0:
            continue  # a free class constrains nothing
        est_rows.append(obs.est_units)
        targets.append(y)

    multipliers = {f: 1.0 for f in RATE_FIELDS}
    if not est_rows or not idx:
        return FitResult(
            rates=base_rates,
            base_rates=base_rates,
            multipliers=multipliers,
            fields=fitted_fields,
            n_observations=len(est_rows),
            ridge=ridge,
            bounds=bounds,
            residual_before=0.0,
            residual_after=0.0,
        )

    est = np.array(est_rows, dtype=float)
    y = np.array(targets, dtype=float)
    pinned = [i for i in range(len(RATE_FIELDS)) if i not in idx]
    y_eff = y - est[:, pinned] @ r0[pinned]
    w = 1.0 / y
    n = len(idx)
    design = np.vstack(
        [est[:, idx] * r0[idx] * w[:, None], np.sqrt(ridge) * np.eye(n)]
    )
    rhs = np.concatenate([y_eff * w, np.sqrt(ridge) * np.ones(n)])
    solution, *_ = np.linalg.lstsq(design, rhs, rcond=None)
    x = np.clip(solution, lo, hi)

    fitted_vec = r0.copy()
    fitted_vec[idx] = r0[idx] * x
    for pos, f in enumerate(fitted_fields):
        multipliers[f] = float(x[pos])
    rates = base_rates.replace(
        **{f: float(v) for f, v in zip(RATE_FIELDS, fitted_vec)}
    )
    return FitResult(
        rates=rates,
        base_rates=base_rates,
        multipliers=multipliers,
        fields=fitted_fields,
        n_observations=len(est_rows),
        ridge=ridge,
        bounds=bounds,
        residual_before=_residual(est, y, r0),
        residual_after=_residual(est, y, fitted_vec),
    )
