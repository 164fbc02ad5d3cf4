"""Calibration profiles on disk: canonical round-trips, the corrupt /
drifted / missing / version-mismatch rejection contract (same as the
committed ``BENCH_*.json`` records), CostRates.replace coverage, and the
fingerprint rule that keeps profiled and unprofiled benchmark records from
checking against each other."""

import json

import pytest

from repro.bench.history import (
    RunRecord,
    database_fingerprint,
    diff_records,
    rerun_arguments,
)
from repro.calibrate.observations import RATE_FIELDS
from repro.calibrate.profile import (
    PROFILE_KIND,
    PROFILE_VERSION,
    CalibrationProfile,
)
from repro.document import DocumentError
from repro.storage.iostats import DEFAULT_RATES, CostRates

from helpers import make_tiny_db


def make_profile(label="test", **rate_overrides) -> CalibrationProfile:
    rates = DEFAULT_RATES.replace(**rate_overrides)
    return CalibrationProfile(
        rates=rates,
        base_rates=DEFAULT_RATES,
        multipliers={
            f: getattr(rates, f) / getattr(DEFAULT_RATES, f)
            for f in RATE_FIELDS
        },
        label=label,
        created_at="2026-08-07T00:00:00",
        scale=0.01,
        tests=("test1", "test2"),
        algorithms=("tplo", "gg"),
        fit_fields=("rand_page_read_ms",),
        ridge=0.03,
        bounds=(0.25, 4.0),
        iterations=3,
        n_observations=42,
        before={"misrankings": 5, "q_error_p95": 1.68},
        after={"misrankings": 0, "q_error_p95": 1.58},
    )


# -- CostRates.replace / serialization ---------------------------------------


def test_cost_rates_replace_round_trip():
    rates = DEFAULT_RATES.replace(rand_page_read_ms=7.5, hash_probe_ms=3e-4)
    assert rates.rand_page_read_ms == 7.5
    assert rates.hash_probe_ms == 3e-4
    # Untouched fields keep their defaults; the original is unchanged.
    assert rates.seq_page_read_ms == DEFAULT_RATES.seq_page_read_ms
    assert DEFAULT_RATES.rand_page_read_ms == 11.0
    # replace with no overrides is identity (new equal instance).
    assert DEFAULT_RATES.replace() == DEFAULT_RATES
    # Unknown fields are rejected by the dataclass constructor.
    with pytest.raises(TypeError):
        DEFAULT_RATES.replace(warp_drive_ms=1.0)
    # Dict round-trip preserves equality.
    assert CostRates.from_mapping(rates.as_dict()) == rates


def test_cost_rates_from_mapping_rejects_drift():
    good = DEFAULT_RATES.as_dict()
    missing = dict(good)
    del missing["rand_page_read_ms"]
    with pytest.raises(ValueError, match="missing rate"):
        CostRates.from_mapping(missing)
    extra = dict(good, bogus_ms=1.0)
    with pytest.raises(ValueError, match="unknown rate"):
        CostRates.from_mapping(extra)
    stringy = dict(good, seq_page_read_ms="fast")
    with pytest.raises(ValueError, match="must be a number"):
        CostRates.from_mapping(stringy)
    boolean = dict(good, seq_page_read_ms=True)
    with pytest.raises(ValueError, match="must be a number"):
        CostRates.from_mapping(boolean)
    infinite = dict(good, seq_page_read_ms=float("inf"))
    with pytest.raises(ValueError, match="must be finite"):
        CostRates.from_mapping(infinite)
    with pytest.raises(ValueError, match="must be an object"):
        CostRates.from_mapping([1, 2, 3])
    # The error names the owning field.
    with pytest.raises(ValueError, match="'base_rates'"):
        CostRates.from_mapping(missing, "base_rates")


# -- file round-trip ----------------------------------------------------------


def test_profile_save_load_byte_identical(tmp_path):
    profile = make_profile(rand_page_read_ms=8.25)
    path = tmp_path / "profile.json"
    profile.save(path)
    first = path.read_bytes()
    loaded = CalibrationProfile.load(path)
    assert loaded == profile
    loaded.save(path)
    assert path.read_bytes() == first


def test_profile_identity_tracks_rates_only():
    a = make_profile(rand_page_read_ms=8.0)
    b = make_profile(rand_page_read_ms=8.0, label="other")
    c = make_profile(rand_page_read_ms=9.0)
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()
    assert a.identity() == {"label": "test", "digest": a.digest()}


# -- rejection contract (exit-2 file errors) ----------------------------------


def test_profile_load_missing_file(tmp_path):
    path = tmp_path / "nope.json"
    with pytest.raises(ValueError, match="nope.json"):
        CalibrationProfile.load(path)


def test_profile_load_corrupt_json(tmp_path):
    path = tmp_path / "corrupt.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="corrupt.json"):
        CalibrationProfile.load(path)


def test_profile_load_wrong_kind(tmp_path):
    path = tmp_path / "bench.json"
    path.write_text(json.dumps({"version": 1, "label": "x"}))
    with pytest.raises(ValueError, match="not a calibration profile"):
        CalibrationProfile.load(path)


def test_profile_load_version_mismatch(tmp_path):
    data = make_profile().to_dict()
    data["version"] = PROFILE_VERSION + 1
    path = tmp_path / "future.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="newer than supported"):
        CalibrationProfile.load(path)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d.pop("rates"), "'rates'"),
        (lambda d: d["rates"].pop("rand_page_read_ms"), "missing rate"),
        (
            lambda d: d["rates"].__setitem__("bogus_ms", 1.0),
            "unknown rate",
        ),
        (
            lambda d: d["rates"].__setitem__("seq_page_read_ms", "oops"),
            "must be a number",
        ),
        (lambda d: d.__setitem__("version", "one"), "version"),
        (lambda d: d.__setitem__("label", 7), "label"),
        (lambda d: d.__setitem__("tests", "test1"), "list of strings"),
        (lambda d: d.__setitem__("multipliers", [1.0]), "multipliers"),
        (lambda d: d.__setitem__("fit", "none"), "'fit'"),
        (
            lambda d: d["fit"].__setitem__("bounds", [0.25]),
            "two-number list",
        ),
        (lambda d: d.__setitem__("before", "summary"), "'before'"),
        (lambda d: d.__setitem__("scale", "big"), "scale"),
    ],
)
def test_profile_load_drifted_layout(tmp_path, mutate, message):
    data = make_profile().to_dict()
    mutate(data)
    path = tmp_path / "drifted.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError) as excinfo:
        CalibrationProfile.load(path)
    text = str(excinfo.value)
    assert "drifted.json" in text
    assert message in text


def test_profile_kind_constant_round_trips():
    data = make_profile().to_dict()
    assert data["kind"] == PROFILE_KIND
    assert CalibrationProfile.from_dict(data) == make_profile()


# -- database application -----------------------------------------------------


def test_apply_profile_swaps_rates_and_records_provenance():
    db = make_tiny_db(n_rows=200)
    assert db.calibration_profile is None
    profile = make_profile(rand_page_read_ms=6.5)
    db.apply_profile(profile)
    assert db.stats.rates.rand_page_read_ms == 6.5
    assert db.calibration_profile is profile
    # The swap is in place: the clock object (shared with the buffer pool
    # and operators) now prices at the profile's rates.
    assert db.stats.rates is profile.rates


# -- fingerprinting (the profile-identity bugfix) ----------------------------


def test_fingerprint_profile_key_only_when_loaded():
    db = make_tiny_db(n_rows=200)
    bare = database_fingerprint(db, scale=0.5)
    assert "profile" not in bare  # old records keep gating
    profile = make_profile()
    db.apply_profile(profile)
    stamped = database_fingerprint(db, scale=0.5)
    assert stamped["profile"] == profile.identity()


def test_profiled_and_unprofiled_records_cannot_gate_each_other():
    """Regression test for the fingerprint bugfix: identical-looking runs
    recorded under default vs fitted rates never compare equal, and the
    check refuses to re-run either under the other's rates."""
    db = make_tiny_db(n_rows=200)
    unprofiled = RunRecord(
        label="a",
        created_at="",
        fingerprint=database_fingerprint(db, scale=0.5),
    )
    profile = make_profile()
    db.apply_profile(profile)  # same *rates*, now with provenance
    profiled = RunRecord(
        label="b",
        created_at="",
        fingerprint=database_fingerprint(db, scale=0.5),
    )
    differences = diff_records(profiled, unprofiled)
    assert differences
    assert all(d.path.startswith("fingerprint/profile/") for d in differences)
    with pytest.raises(DocumentError, match="pass --profile FILE"):
        rerun_arguments(profiled)
    with pytest.raises(DocumentError, match="drop --profile"):
        rerun_arguments(unprofiled, profile)
    # Two records under the *same* profile compare equal.
    also_profiled = RunRecord(
        label="c",
        created_at="",
        fingerprint=database_fingerprint(db, scale=0.5),
    )
    assert diff_records(profiled, also_profiled) == []
    assert rerun_arguments(profiled, profile)["profile"] is profile


def test_run_record_profile_field_round_trips(tmp_path):
    record = RunRecord(
        label="x",
        created_at="now",
        fingerprint={"scale": 0.5},
        profile={"label": "test", "digest": "abc123"},
    )
    path = tmp_path / "BENCH_x.json"
    record.save(path)
    loaded = RunRecord.load(path)
    assert loaded.profile == {"label": "test", "digest": "abc123"}
    # Old records without the field load as None.
    data = record.to_dict()
    del data["profile"]
    assert RunRecord.from_dict(data).profile is None
    # Drifted type is rejected with the field named.
    data["profile"] = "paper"
    with pytest.raises(ValueError, match="profile"):
        RunRecord.from_dict(data)
