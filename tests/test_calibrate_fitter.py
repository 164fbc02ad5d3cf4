"""The calibration fitter: basis-vector extraction, the least-squares
regression itself (ground-truth recovery, determinism, pinning, bounds,
degenerate inputs), and the fit-on-a-database loop on a tiny workload."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.calibrate.fitter import (
    DEFAULT_BOUNDS,
    FIT_FIELDS,
    fit_rates,
)
from repro.calibrate.observations import (
    COUNTER_FOR_RATE,
    RATE_FIELDS,
    Observation,
    ObservationSet,
    basis_models,
    estimated_units,
    observation_from_execution,
)
from repro.storage.iostats import DEFAULT_RATES, CostRates

from helpers import make_tiny_db, random_query


# -- unit-vector extraction ---------------------------------------------------


def test_rate_fields_cover_cost_rates():
    assert set(COUNTER_FOR_RATE) == set(RATE_FIELDS)
    # buffer_hits is the one counter with no rate.
    from repro.storage.iostats import IOStats

    priced = set(COUNTER_FOR_RATE.values())
    assert set(IOStats._COUNTER_FIELDS) - priced == {"buffer_hits"}


def test_basis_decomposition_matches_estimates():
    """est_units . rates must reproduce every class's own est_cost_ms —
    the linearity contract of CostModel.class_cost_given."""
    db = make_tiny_db(
        n_rows=400, materialized=("X'Y",), index_tables=("XY", "X'Y")
    )
    models = basis_models(db)
    rng = random.Random(7)
    queries = [random_query(db.schema, rng) for _ in range(6)]
    checked = 0
    for algorithm in ("tplo", "gg"):
        plan = db.optimize(queries, algorithm)
        for plan_class in plan.classes:
            units = estimated_units(
                models, plan_class, check_rates=db.stats.rates
            )
            assert units is not None, plan_class.source
            repriced = sum(
                u * getattr(db.stats.rates, f)
                for u, f in zip(units, RATE_FIELDS)
            )
            assert repriced == pytest.approx(
                plan_class.est_cost_ms, rel=1e-9
            )
            checked += 1
    assert checked >= 3


def test_observation_from_execution_counters_match_sim():
    db = make_tiny_db(n_rows=300)
    models = basis_models(db)
    rng = random.Random(11)
    queries = [random_query(db.schema, rng) for _ in range(4)]
    report = db.execute(db.optimize(queries, "gg"))
    for execution in report.class_executions:
        obs = observation_from_execution(models, execution)
        assert obs is not None
        priced = sum(
            u * getattr(db.stats.rates, f)
            for u, f in zip(obs.actual_units, RATE_FIELDS)
        )
        assert priced == pytest.approx(obs.actual_ms, rel=1e-9)


def test_observation_set_dedups_and_orders():
    a = Observation("b|H|1", (1.0,) * len(RATE_FIELDS), (1.0,) * len(RATE_FIELDS), 5.0)
    b = Observation("a|H|1", (2.0,) * len(RATE_FIELDS), (2.0,) * len(RATE_FIELDS), 6.0)
    dup = Observation("b|H|1", (9.0,) * len(RATE_FIELDS), (9.0,) * len(RATE_FIELDS), 7.0)
    obs = ObservationSet()
    for o in (a, b, dup, None):
        obs.add(o)
    assert len(obs) == 2
    ordered = obs.observations()
    assert [o.key for o in ordered] == ["a|H|1", "b|H|1"]
    assert ordered[1].actual_ms == 5.0  # first sighting wins


# -- the regression -----------------------------------------------------------


def _synthetic_observations(rng, truth, base, n=40):
    """Counters drawn from a known ground-truth world: the model's unit
    predictions are exact (est == counters), and the recorded counters are
    inflated per field so that pricing them at the *base* rates yields the
    cost the ground-truth rates would have charged — exactly the situation
    a real ledger presents when the hand-set rates are wrong."""
    observations = []
    for i in range(n):
        units = tuple(float(rng.randint(1, 1000)) for _ in RATE_FIELDS)
        actual = tuple(
            u * getattr(truth, f) / getattr(base, f)
            for u, f in zip(units, RATE_FIELDS)
        )
        actual_ms = sum(u * getattr(truth, f) for u, f in zip(units, RATE_FIELDS))
        observations.append(
            Observation(f"synthetic|{i}", units, actual, actual_ms)
        )
    return observations


@settings(
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 2**32 - 1),
    multipliers=st.lists(
        st.floats(0.3, 3.5, allow_nan=False, allow_infinity=False),
        min_size=len(RATE_FIELDS),
        max_size=len(RATE_FIELDS),
    ),
)
def test_fitter_recovers_ground_truth_rates(seed, multipliers):
    """Synthetic actuals generated from known ground-truth CostRates are
    recovered within tolerance, and the fit is deterministic across
    observation orderings."""
    base = DEFAULT_RATES
    truth = base.replace(
        **{
            f: getattr(base, f) * m
            for f, m in zip(RATE_FIELDS, multipliers)
        }
    )
    rng = random.Random(seed)
    observations = _synthetic_observations(rng, truth, base, n=60)
    # The system is exactly consistent (60 equations, 11 unknowns, zero
    # noise), so fit without regularization: any ridge would bias the
    # weakly-weighted cpu columns measurably.
    result = fit_rates(
        observations, base, fields=RATE_FIELDS, ridge=0.0
    )
    for f in RATE_FIELDS:
        assert getattr(result.rates, f) == pytest.approx(
            getattr(truth, f), rel=1e-3
        ), f

    shuffled = list(observations)
    rng.shuffle(shuffled)
    again = fit_rates(shuffled, base, fields=RATE_FIELDS, ridge=0.0)
    # Bit-identical, not just approximately equal: canonical ordering
    # inside the fitter removes float-summation order sensitivity.
    assert again.rates == result.rates
    assert again.multipliers == result.multipliers


def test_fitter_is_deterministic_across_runs():
    rng = random.Random(123)
    truth = DEFAULT_RATES.replace(rand_page_read_ms=7.0, hash_probe_ms=3e-4)
    observations = _synthetic_observations(rng, truth, DEFAULT_RATES, n=30)
    results = [
        fit_rates(observations, DEFAULT_RATES) for _ in range(3)
    ]
    assert results[0].rates == results[1].rates == results[2].rates


def test_fitter_pins_unfitted_fields():
    rng = random.Random(5)
    truth = DEFAULT_RATES.replace(index_lookup_ms=1.0, page_write_ms=9.0)
    observations = _synthetic_observations(rng, truth, DEFAULT_RATES, n=30)
    result = fit_rates(observations, DEFAULT_RATES, fields=FIT_FIELDS)
    # index_lookup_ms / page_write_ms are not in FIT_FIELDS: pinned at base.
    assert result.rates.index_lookup_ms == DEFAULT_RATES.index_lookup_ms
    assert result.rates.page_write_ms == DEFAULT_RATES.page_write_ms
    assert result.multipliers["index_lookup_ms"] == 1.0
    assert "index_lookup_ms" not in result.fields


def test_fitter_clips_to_bounds():
    rng = random.Random(9)
    truth = DEFAULT_RATES.replace(rand_page_read_ms=110.0)  # 10x the base
    observations = _synthetic_observations(rng, truth, DEFAULT_RATES, n=30)
    result = fit_rates(
        observations, DEFAULT_RATES, fields=("rand_page_read_ms",),
        ridge=0.0,
    )
    lo, hi = DEFAULT_BOUNDS
    assert result.multipliers["rand_page_read_ms"] == pytest.approx(hi)
    assert result.rates.rand_page_read_ms == pytest.approx(
        DEFAULT_RATES.rand_page_read_ms * hi
    )


def test_fitter_degenerate_inputs():
    # No observations: base rates back, multipliers 1.
    result = fit_rates([], DEFAULT_RATES)
    assert result.rates == DEFAULT_RATES
    assert set(result.multipliers.values()) == {1.0}
    # Zero-cost observations constrain nothing.
    zero = Observation(
        "free", (0.0,) * len(RATE_FIELDS), (0.0,) * len(RATE_FIELDS), 0.0
    )
    result = fit_rates([zero], DEFAULT_RATES)
    assert result.rates == DEFAULT_RATES
    assert result.n_observations == 0
    # Unknown field names are rejected.
    with pytest.raises(ValueError, match="unknown rate fields"):
        fit_rates([], DEFAULT_RATES, fields=("warp_drive_ms",))
    with pytest.raises(ValueError, match="bounds"):
        fit_rates([], DEFAULT_RATES, bounds=(0.0, 1.0))


# -- the loop on a real (tiny) database ---------------------------------------


def test_fit_on_tiny_workload():
    """Collect real observations on the tiny schema, fit, and re-plan
    under the fitted rates (fit_database itself needs the paper workload
    and is covered by tests/test_calibrate_smoke.py)."""
    db = make_tiny_db(
        n_rows=400, materialized=("X'Y",), index_tables=("XY", "X'Y")
    )
    # The tiny schema has no paper tests; drive the sweep directly through
    # the fitter's building blocks instead.
    models = basis_models(db)
    observations = ObservationSet()
    rng = random.Random(21)
    batches = [
        [random_query(db.schema, rng) for _ in range(3)] for _ in range(4)
    ]
    for batch in batches:
        for algorithm in ("tplo", "gg"):
            report = db.execute(db.optimize(batch, algorithm))
            for execution in report.class_executions:
                observations.add_execution(models, execution)
    assert len(observations) >= 4
    result = fit_rates(observations.observations(), db.stats.rates)
    lo, hi = DEFAULT_BOUNDS
    for f in result.fields:
        assert lo <= result.multipliers[f] <= hi
    # Applying the fit re-prices planning: optimize still works and the
    # plans' estimates are priced at the fitted rates.
    db.set_rates(result.rates)
    plan = db.optimize(batches[0], "gg")
    assert plan.est_cost_ms > 0
    assert db.stats.rates == result.rates
