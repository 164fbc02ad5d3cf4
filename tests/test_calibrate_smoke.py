"""Calibrate smoke (tier-1): the full Tests 1-7 fit at the committed scale.

Gates:

* fitted-rates misranking count <= default-rates misranking count — the
  fit may never *create* ranking failures;
* the fitted profile round-trips byte-identically through save/load;
* paranoia (plan validation + brute-force reference cross-check) still
  passes under the fitted rates — rates steer plan *choice*, never
  results, and a fitted profile must not break that;
* the committed PROFILE_paper.json still matches what the fit produces
  today (rates drift means the committed calibration report is stale).

At scale 0.002 the default rates misrank 5 plan pairs and the fit removes
all of them; at the committed scale 0.01 both sweeps are misranking-free
and the fit's win shows up as the q-error p95 drop.  Both gates run here.
"""

from pathlib import Path

import pytest

from repro.calibrate import CalibrationProfile, fit_database
from repro.cli import main
from repro.workload.paper_queries import ALL_PAPER_TESTS
from repro.workload.paper_schema import build_paper_database

REPO_ROOT = Path(__file__).resolve().parent.parent
COMMITTED_PROFILE = REPO_ROOT / "PROFILE_paper.json"


@pytest.fixture(scope="module")
def outcome_001():
    """The full fit at the committed scale (0.01), shared by the gates."""
    db = build_paper_database(scale=0.01)
    return db, fit_database(db, label="paper", scale=0.01)


def test_fit_covers_all_paper_tests(outcome_001):
    _, outcome = outcome_001
    assert outcome.profile.tests == tuple(ALL_PAPER_TESTS)
    assert outcome.fit.n_observations >= 20


def test_fitted_misrankings_never_exceed_default(outcome_001):
    _, outcome = outcome_001
    before = len(outcome.before.misrankings)
    after = len(outcome.after.misrankings)
    assert after <= before, (
        f"fit created misrankings: {before} -> {after}\n"
        + outcome.render_report()
    )


def test_fitted_q_error_p95_not_worse(outcome_001):
    _, outcome = outcome_001
    b = outcome.before.summary()["q_error_p95"]
    a = outcome.after.summary()["q_error_p95"]
    assert a <= b, f"q-error p95 worsened: {b} -> {a}"


def test_fit_removes_misrankings_at_small_scale():
    """At scale 0.002 the hand-set defaults misrank (the probe-page
    overestimate flips tplo vs the sharing optimizers on test2); the fit
    must strictly reduce them, not merely hold the line."""
    db = build_paper_database(scale=0.002)
    outcome = fit_database(db, label="smoke", scale=0.002)
    before = len(outcome.before.misrankings)
    after = len(outcome.after.misrankings)
    assert after <= before
    if before > 0:
        assert after < before, (
            f"default rates misrank {before} pair(s) but the fit removed "
            f"none\n" + outcome.render_report()
        )


def test_profile_round_trips_byte_identical(outcome_001, tmp_path):
    _, outcome = outcome_001
    path = tmp_path / "profile.json"
    outcome.profile.save(path)
    first = path.read_bytes()
    loaded = CalibrationProfile.load(path)
    assert loaded == outcome.profile
    loaded.save(path)
    assert path.read_bytes() == first


def test_paranoia_passes_under_fitted_rates(outcome_001):
    """Validate every plan and cross-check every result against the
    brute-force reference while running on the fitted rates."""
    from repro.calibrate import run_calibration

    db, outcome = outcome_001
    db.set_rates(outcome.fit.rates)
    db.paranoia = True
    try:
        run_calibration(db, tests=("test2", "test4"), algorithms=("gg",))
    finally:
        db.paranoia = False


def test_committed_profile_matches_refit(outcome_001):
    """PROFILE_paper.json is a committed artifact; if the fitter or the
    workload changed enough to move the fitted rates, the profile (and the
    calibration report in the docs) must be regenerated in the same PR."""
    if not COMMITTED_PROFILE.exists():
        pytest.skip("no committed profile (pre-artifact checkout)")
    committed = CalibrationProfile.load(COMMITTED_PROFILE)
    _, outcome = outcome_001
    for field_name in (
        "seq_page_read_ms",
        "rand_page_read_ms",
        "hash_probe_ms",
        "tuple_copy_ms",
        "bitmap_word_ms",
    ):
        got = getattr(outcome.profile.rates, field_name)
        want = getattr(committed.rates, field_name)
        assert got == pytest.approx(want, rel=1e-6), (
            f"{field_name}: committed {want} vs refit {got} — regenerate "
            f"PROFILE_paper.json and docs/cost_model.md"
        )


def test_cli_fit_writes_loadable_profile(tmp_path, capsys):
    path = tmp_path / "cli_profile.json"
    assert (
        main(
            [
                "calibrate", "--fit", "--report",
                "--scale", "0.002",
                "--profile", str(path),
                "--label", "cli-smoke",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "Fitted cost rates" in out
    assert "misrankings" in out
    profile = CalibrationProfile.load(path)
    assert profile.label == "cli-smoke"
    # The profile drives other subcommands end to end.
    assert main(["calibrate", "--scale", "0.002", "--tests", "test4",
                 "--profile", str(path)]) == 0


def test_cli_report_requires_fit(capsys):
    assert main(["calibrate", "--report", "--scale", "0.002"]) == 2
    assert "--report requires --fit" in capsys.readouterr().err
